(* Pids at or above this bound are never packed into a mask (it caps
   mask allocation when a window mentions an absurd pid); out-of-mask
   pids live in the sorted [extra] lists, so behaviour stays exact at
   any pid while masks stay small. *)
let mask_clamp = 0x10000

(* Masks are the ground truth.  A uniform window stores ONE shared mask
   (plus the out-of-mask tail), not n copies — construction is
   O(n / word-size + |extra|) words.  Per-processor windows keep one
   mask/extra/size triple per slot; [hybrid] shares the two halves'
   masks and extras physically.  The [int list array] view of the
   receive sets is a lazily-projected, memoized accessor ([to_lists]):
   only pretty-printers, validation error paths and tests read it. *)
type body =
  | Uniform of { mask : Bitset.t; size : int; extra : int list }
      (* every slot shares [mask] ∪ [extra]; [extra] holds the members
         at or above [mask_clamp] (a uniform window cannot name a
         negative pid), ascending *)
  | Per of { masks : Bitset.t array; extras : int list array; sizes : int array }
      (* [extras.(i)] holds the members of S_i outside the mask range
         (negative or >= [mask_clamp]), ascending *)

type t = {
  arity : int;
  body : body;
  resets : int list;
  reset_count : int;
  mutable lists : int list array option;
      (* memoized projection; writing it is benign (idempotent, derived
         purely from [body]) *)
}

let normalize xs = List.sort_uniq Int.compare xs

let mask_of_set s =
  let capacity =
    List.fold_left
      (fun acc p -> if p >= 0 && p < mask_clamp then max acc (p + 1) else acc)
      0 s
  in
  Bitset.of_list ~capacity s

let extra_of_set s = List.filter (fun p -> p < 0 || p >= mask_clamp) s

(* Shared constructor: [sets]/[resets] must already be normalized.  The
   normalized lists are in hand, so memoize the projection eagerly —
   [make] keeps its old cost and [to_lists] is free on made windows. *)
let build ~sets ~resets =
  {
    arity = Array.length sets;
    body =
      Per
        {
          masks = Array.map mask_of_set sets;
          extras = Array.map extra_of_set sets;
          sizes = Array.map List.length sets;
        };
    resets;
    reset_count = List.length resets;
    lists = Some sets;
  }

let make ~receive_sets ~resets =
  build ~sets:(Array.map normalize receive_sets) ~resets:(normalize resets)

let uniform ~n ?(silenced = []) ?(resets = []) () =
  let silenced = normalize silenced in
  let mask = Bitset.full ~capacity:(min n mask_clamp) in
  (* Count members by counting the removals that actually landed, so
     sizing is O(|silenced|) instead of a mask popcount. *)
  let removed =
    List.fold_left
      (fun acc p ->
        if Bitset.mem mask p then begin
          Bitset.remove mask p;
          acc + 1
        end
        else acc)
      0 silenced
  in
  (* Members past the mask range ([mask_clamp, n)) keep exact list
     semantics through the shared extra tail. *)
  let extra =
    if n <= mask_clamp then []
    else
      List.filter
        (fun p -> not (List.mem p silenced))
        (List.init (n - mask_clamp) (fun i -> mask_clamp + i))
  in
  let resets = normalize resets in
  {
    arity = n;
    body =
      Uniform
        { mask; size = min n mask_clamp - removed + List.length extra; extra };
    resets;
    reset_count = List.length resets;
    lists = None;
  }

let hybrid ~n ~j ~s0 ~s1 ~r0 ~r1 =
  let s0 = normalize s0 and s1 = normalize s1 in
  let m0 = mask_of_set s0 and m1 = mask_of_set s1 in
  let e0 = extra_of_set s0 and e1 = extra_of_set s1 in
  let z0 = List.length s0 and z1 = List.length s1 in
  let resets =
    normalize (List.filter (fun p -> p < j) r0 @ List.filter (fun p -> p >= j) r1)
  in
  {
    arity = n;
    body =
      Per
        {
          masks = Array.init n (fun i -> if i < j then m0 else m1);
          extras = Array.init n (fun i -> if i < j then e0 else e1);
          sizes = Array.init n (fun i -> if i < j then z0 else z1);
        };
    resets;
    reset_count = List.length resets;
    lists = None;
  }

let of_masks ~resets masks =
  let n = Array.length masks in
  let resets = normalize resets in
  {
    arity = n;
    body =
      Per
        {
          masks;
          extras = Array.make n [];
          sizes = Array.map Bitset.cardinal masks;
        };
    resets;
    reset_count = List.length resets;
    lists = None;
  }

(* Project the receive sets back to sorted lists and memoize.  Slots
   sharing a mask physically (uniform, hybrid) share the projected list
   too, so projection is O(total distinct members), not O(n * members). *)
let to_lists w =
  match w.lists with
  | Some ls -> ls
  | None ->
      let with_extra base extra =
        match extra with
        | [] -> base
        | extra ->
            let neg, hi = List.partition (fun p -> p < 0) extra in
            neg @ base @ hi
      in
      let ls =
        match w.body with
        | Uniform { mask; extra; _ } ->
            Array.make w.arity (with_extra (Bitset.to_list mask) extra)
        | Per { masks; extras; _ } ->
            let cached = ref None in
            Array.init w.arity (fun i ->
                let base =
                  match !cached with
                  | Some (m, l) when m == masks.(i) -> l
                  | _ ->
                      let l = Bitset.to_list masks.(i) in
                      cached := Some (masks.(i), l);
                      l
                in
                with_extra base extras.(i))
      in
      w.lists <- Some ls;
      ls

let resets w = w.resets
let receive_set w i = (to_lists w).(i)

let check_slot w i =
  if i < 0 || i >= w.arity then invalid_arg "index out of bounds"

let receive_set_size w i =
  match w.body with
  | Uniform { size; _ } ->
      check_slot w i;
      size
  | Per { sizes; _ } -> sizes.(i)

(* True iff S_i mentions a pid outside [0, n).  With the cached size and
   mask this is a popcount, not a list walk: the mask holds exactly the
   non-negative in-clamp members, so the set is clean iff all [size]
   members land in the mask below [n].  Past the clamp only the extra
   tail can offend. *)
let slot_out_of_range ~n ~mask ~extra ~size =
  if n <= mask_clamp then size <> Bitset.cardinal_below mask n
  else List.exists (fun p -> p < 0 || p >= n) extra

let validate ~n ~t w =
  let in_range p = p >= 0 && p < n in
  (* Error paths only: recover the actual offending pid by a list walk
     over the projection so diagnostics name it (the hot-path check
     stays a popcount). *)
  let first_out_of_range ps = List.find_opt (fun p -> not (in_range p)) ps in
  let slot_error i ~mask ~extra ~size =
    if slot_out_of_range ~n ~mask ~extra ~size then
      let p = Option.get (first_out_of_range (to_lists w).(i)) in
      Some
        (Printf.sprintf "S_%d contains out-of-range pid %d (n = %d)" i p n)
    else if size < n - t then
      Some
        (Printf.sprintf "S_%d has %d senders; need >= n - t = %d" i size (n - t))
    else None
  in
  if w.arity <> n then
    Error (Printf.sprintf "window has %d receive sets; need %d" w.arity n)
  else if w.reset_count > t then
    Error (Printf.sprintf "window resets %d processors; at most t = %d allowed" w.reset_count t)
  else
    match first_out_of_range w.resets with
    | Some p ->
        Error
          (Printf.sprintf "reset set contains out-of-range pid %d (n = %d)" p n)
    | None -> (
        match w.body with
        | Uniform { mask; extra; size } ->
            (* All slots share one set: checking slot 0 checks them all,
               and slot 0 is the first offender when any is. *)
            if n = 0 then Ok ()
            else (
              match slot_error 0 ~mask ~extra ~size with
              | Some e -> Error e
              | None -> Ok ())
        | Per { masks; extras; sizes } ->
            let rec check i =
              if i >= n then Ok ()
              else
                match
                  slot_error i ~mask:masks.(i) ~extra:extras.(i) ~size:sizes.(i)
                with
                | Some e -> Error e
                | None -> check (i + 1)
            in
            check 0)

let allows w ~dst ~src =
  match w.body with
  | Uniform { mask; extra; _ } ->
      check_slot w dst;
      if src < mask_clamp then Bitset.mem mask src else List.mem src extra
  | Per { masks; extras; _ } ->
      (* Negative src falls into the mask branch and [Bitset.mem]
         answers false there — deliberately: a stored negative pid can
         never be a sender (the old delivery loop's flag array gave the
         same answer). *)
      if src < mask_clamp then Bitset.mem masks.(dst) src
      else List.mem src extras.(dst)

let is_fault_free w ~n =
  w.reset_count = 0
  &&
  match w.body with
  | Uniform { size; _ } -> w.arity = 0 || size = n
  | Per { sizes; _ } -> Array.for_all (fun size -> size = n) sizes

let pp ppf w =
  let pp_list ppf l =
    Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") Format.pp_print_int) l
  in
  Format.fprintf ppf "@[<v>window: resets=%a@," pp_list w.resets;
  Array.iteri (fun i s -> Format.fprintf ppf "  S_%d=%a@," i pp_list s) (to_lists w);
  Format.fprintf ppf "@]"
