(** Interprocedural call graph over the loaded typed trees.

    Nodes are the named value bindings of every module (including
    bindings inside nested [struct]s); an edge is any reference to
    another known binding — references are treated as calls, which is
    conservative in exactly the right direction for effect analysis
    (passing an effectful function to [List.iter] still taints the
    caller). *)

type fn = {
  id : string;  (** ["Ben_or.advance"], ["Rbc.Inner.evaluate"] *)
  modname : string;
  src_path : string;  (** root-relative source path *)
  loc : Location.t;
  body : Typedtree.expression;
}

type t

val build : Cmt_loader.unit_info list -> t

val find : t -> string -> fn option

val fns : t -> fn list
(** All known functions, sorted by id (deterministic iteration). *)

val resolve : t -> current_module:string -> Path.t -> fn option
(** Map a referenced path to a known function: bare idents resolve
    inside [current_module]; dotted paths are tried verbatim, by their
    last two components, and as a nested module of the current unit. *)

val path_components : Path.t -> string list
(** Flattened path with dune's [Lib__Module] mangling normalized away
    (["Dsim__Protocol.t"] -> [["Protocol"; "t"]]). *)

val stdlib_name : Path.t -> string
(** [path_components] joined with dots, a leading ["Stdlib."] stripped
    so primitive tables match both spellings. *)
