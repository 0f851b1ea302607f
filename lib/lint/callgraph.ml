type fn = {
  id : string;
  modname : string;
  src_path : string;
  loc : Location.t;
  body : Typedtree.expression;
}

type t = { fns : (string, fn) Hashtbl.t }

(* ------------------------------------------------------------------ *)
(* Path normalization.                                                 *)

let normalize_component = Cmt_loader.normalize_modname

let rec raw_components path =
  match path with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> raw_components p @ [ s ]
  | Path.Papply (a, b) -> raw_components a @ raw_components b
  | Path.Pextra_ty (p, _) -> raw_components p

let path_components path = List.map normalize_component (raw_components path)

(* "Stdlib.Hashtbl.replace" and "Hashtbl.replace" must hit the same
   primitive tables. *)
let strip_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | c -> c

let stdlib_name path = String.concat "." (strip_stdlib (path_components path))

(* ------------------------------------------------------------------ *)
(* Function collection.                                                *)

let register table ~modname ~src_path ~prefix name loc body =
  let id = String.concat "." (modname :: List.rev (name :: prefix)) in
  Hashtbl.replace table id { id; modname; src_path; loc; body }

let rec collect_structure table ~modname ~src_path ~prefix
    (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (_, { txt; _ }) ->
                  register table ~modname ~src_path ~prefix txt
                    vb.vb_expr.exp_loc vb.vb_expr
              | _ -> ())
            vbs
      | Tstr_module mb -> (
          match (mb.mb_id, mb.mb_expr.mod_desc) with
          | Some id, Tmod_structure sub ->
              collect_structure table ~modname ~src_path
                ~prefix:(Ident.name id :: prefix) sub
          | Some id, Tmod_constraint ({ mod_desc = Tmod_structure sub; _ }, _, _, _)
            ->
              collect_structure table ~modname ~src_path
                ~prefix:(Ident.name id :: prefix) sub
          | _ -> ())
      | _ -> ())
    str.str_items

let build (units : Cmt_loader.unit_info list) =
  let fns = Hashtbl.create 256 in
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      collect_structure fns ~modname:u.modname ~src_path:u.path ~prefix:[]
        u.structure)
    units;
  { fns }

let find t id = Hashtbl.find_opt t.fns id

let fns t =
  Hashtbl.fold (fun _ fn acc -> fn :: acc) t.fns []
  |> List.sort (fun a b -> String.compare a.id b.id)

(* Resolve a referenced path against the table: a bare ident is a
   sibling in the same module; a dotted path is matched first verbatim,
   then by its last two components ("Tally.add" however the library
   wrapper spelled it), then as a nested module of the current unit. *)
let resolve t ~current_module path =
  let components = path_components path in
  let candidates =
    match components with
    | [] -> []
    | [ name ] -> [ current_module ^ "." ^ name ]
    | _ ->
        let joined = String.concat "." components in
        let last_two =
          match List.rev components with
          | f :: m :: _ -> [ m ^ "." ^ f ]
          | _ -> []
        in
        (joined :: last_two) @ [ current_module ^ "." ^ joined ]
  in
  List.find_map (fun id -> Hashtbl.find_opt t.fns id) candidates
