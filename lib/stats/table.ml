type cell = S of string | I of int | F of float | Pct of float | B of bool

type t = { title : string; columns : string list; mutable rows : cell list list }

let create ~title ~columns =
  if List.is_empty columns then invalid_arg "Table.create: no columns";
  { title; columns; rows = [] }

let cell_to_string = function
  | S s -> s
  | I i -> string_of_int i
  | F f ->
      if Float.is_nan f then "-"
      else if Float.is_integer f && Float.abs f < 1e9 then Printf.sprintf "%.1f" f
      else if Float.abs f >= 1e5 || (Float.abs f < 1e-3 && not (Float.equal f 0.0)) then
        Printf.sprintf "%.3e" f
      else Printf.sprintf "%.4g" f
  | Pct p -> if Float.is_nan p then "-" else Printf.sprintf "%.1f%%" (100.0 *. p)
  | B b -> if b then "yes" else "no"

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- t.rows @ [ cells ]

let row_count t = List.length t.rows

let to_string t =
  let rows_as_strings = List.map (List.map cell_to_string) t.rows in
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length col) rows_as_strings)
      t.columns
  in
  let buffer = Buffer.create 256 in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let render_line cells =
    Buffer.add_string buffer "| ";
    List.iteri
      (fun i cell ->
        Buffer.add_string buffer (pad cell (List.nth widths i));
        Buffer.add_string buffer " | ")
      cells;
    (* Drop the trailing space for tidy output. *)
    let len = Buffer.length buffer in
    Buffer.truncate buffer (len - 1);
    Buffer.add_char buffer '\n'
  in
  Buffer.add_string buffer ("## " ^ t.title ^ "\n");
  render_line t.columns;
  Buffer.add_string buffer "|";
  List.iter
    (fun w -> Buffer.add_string buffer (String.make (w + 2) '-' ^ "|"))
    widths;
  Buffer.add_char buffer '\n';
  List.iter render_line rows_as_strings;
  Buffer.contents buffer

let cell_to_csv = function
  | S s -> s
  | I i -> string_of_int i
  | F f -> if Float.is_nan f then "" else Printf.sprintf "%.10g" f
  | Pct p -> if Float.is_nan p then "" else Printf.sprintf "%.10g" p
  | B b -> string_of_bool b

let csv_escape s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quoting then s
  else
    let buffer = Buffer.create (String.length s + 2) in
    Buffer.add_char buffer '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buffer "\"\"" else Buffer.add_char buffer c)
      s;
    Buffer.add_char buffer '"';
    Buffer.contents buffer

let to_csv t =
  let line cells = String.concat "," (List.map csv_escape cells) ^ "\n" in
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (line t.columns);
  List.iter
    (fun row -> Buffer.add_string buffer (line (List.map cell_to_csv row)))
    t.rows;
  Buffer.contents buffer

let pp ppf t = Format.pp_print_string ppf (to_string t)
