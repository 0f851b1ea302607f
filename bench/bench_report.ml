(* Machine-readable bench reports and the regression gate.

   A report is a flat map from fully-qualified Bechamel test name
   ("agreement/E1/window-apply-n18") to the OLS per-run estimates of
   the loaded measures: monotonic-clock nanoseconds and minor-heap
   words.  Reports are serialized as JSON (schema below) so
   `scripts/bench.sh` can archive one per day (BENCH_<date>.json) and
   diff any two runs; `compare` implements the CI gate against the
   checked-in baseline.

   Schema ("agreement-bench/1"):

     {
       "schema": "agreement-bench/1",
       "mode": "full" | "quick",
       "tests": {
         "<group/test>": {
           "monotonic-clock-ns": <float>,
           "minor-allocated-words": <float>
         },
         ...
       }
     }

   No JSON library is vendored in the build environment, so the tiny
   emitter/parser below handle exactly this subset (objects, strings,
   numbers) plus enough generality (arrays, literals) not to choke on
   hand-edited files. *)

type entry = { ns : float option; words : float option }
type t = { mode : string; tests : (string * entry) list }

(* ------------------------------------------------------------------ *)
(* Emission.                                                           *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let emit oc report =
  let tests =
    List.sort (fun (a, _) (b, _) -> String.compare a b) report.tests
  in
  Printf.fprintf oc "{\n  \"schema\": \"agreement-bench/1\",\n";
  Printf.fprintf oc "  \"mode\": \"%s\",\n" (escape report.mode);
  Printf.fprintf oc "  \"tests\": {";
  List.iteri
    (fun i (name, e) ->
      if i > 0 then Printf.fprintf oc ",";
      Printf.fprintf oc "\n    \"%s\": {" (escape name);
      let fields =
        List.filter_map
          (fun (k, v) -> Option.map (fun v -> (k, v)) v)
          [ ("monotonic-clock-ns", e.ns); ("minor-allocated-words", e.words) ]
      in
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Printf.fprintf oc ",";
          Printf.fprintf oc "\n      \"%s\": %.6f" k v)
        fields;
      Printf.fprintf oc "\n    }")
    tests;
  Printf.fprintf oc "\n  }\n}\n"

(* ------------------------------------------------------------------ *)
(* Parsing (restricted JSON).                                          *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json source =
  let pos = ref 0 in
  let len = String.length source in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some source.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when Char.equal c c' -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'; loop ()
          | Some '\\' -> advance (); Buffer.add_char b '\\'; loop ()
          | Some 'n' -> advance (); Buffer.add_char b '\n'; loop ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; loop ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub source !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?';
              loop ()
          | _ -> fail "bad escape")
      | Some c ->
          advance ();
          Buffer.add_char b c;
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub source start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let literal word value =
    if
      !pos + String.length word <= len
      && String.equal (String.sub source !pos (String.length word)) word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, value) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, value) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (value :: acc)
            | Some ']' ->
                advance ();
                List.rev (value :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let of_string source =
  match parse_json source with
  | exception Parse_error msg -> Error msg
  | Obj fields ->
      let mode =
        match List.assoc_opt "mode" fields with
        | Some (Str m) -> m
        | _ -> "full"
      in
      let entry_of = function
        | Obj measures ->
            let num key =
              match List.assoc_opt key measures with
              | Some (Num f) -> Some f
              | _ -> None
            in
            {
              ns = num "monotonic-clock-ns";
              words = num "minor-allocated-words";
            }
        | _ -> { ns = None; words = None }
      in
      let tests =
        match List.assoc_opt "tests" fields with
        | Some (Obj tests) -> List.map (fun (k, v) -> (k, entry_of v)) tests
        | _ -> []
      in
      (match List.assoc_opt "schema" fields with
      | Some (Str "agreement-bench/1") | None -> Ok { mode; tests }
      | Some (Str other) -> Error (Printf.sprintf "unknown schema %S" other)
      | Some _ -> Error "schema field is not a string")
  | _ -> Error "top-level JSON value is not an object"

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | source -> of_string source

(* ------------------------------------------------------------------ *)
(* The regression gate.                                                *)

type verdict = {
  test : string;
  metric : string;
  baseline : float;
  current : float;
  delta_pct : float;  (** positive = slower / more allocation *)
}

(* A zero baseline has no relative scale: anything above it is an
   unbounded regression, so a row that allocated nothing cannot start
   allocating unnoticed. *)
let pct_delta ~baseline ~current =
  if Float.abs baseline < 1e-9 then
    if current > baseline then Float.infinity else 0.0
  else (current -. baseline) /. baseline *. 100.0

(* Compare [current] against [baseline].  [gate_wall]/[gate_words]
   select which measures can fail the gate (quick smoke runs gate only
   on allocations, which are deterministic even under tiny quotas).
   The two measures get separate fences: per-run minor words are
   deterministic, so [words_threshold] can be tight, while wall time on
   a shared host jitters by tens of percent between identical runs, so
   [wall_threshold] is expected to be several times looser — it exists
   to catch gross slowdowns, not scheduler noise.  Tests present in
   only one report are skipped: the gate is about regressions in
   matched groups, not coverage drift. *)
let compare ~wall_threshold ~words_threshold ~gate_wall ~gate_words
    ~(baseline : t) (current : t) =
  let verdicts metric gate threshold project =
    if not gate then []
    else
      List.filter_map
        (fun (name, cur_entry) ->
          match List.assoc_opt name baseline.tests with
          | None -> None
          | Some base_entry -> (
              match (project base_entry, project cur_entry) with
              | Some b, Some c ->
                  let delta_pct = pct_delta ~baseline:b ~current:c in
                  if delta_pct > threshold then
                    Some
                      { test = name; metric; baseline = b; current = c; delta_pct }
                  else None
              | _ -> None))
        current.tests
  in
  verdicts "monotonic-clock-ns" gate_wall wall_threshold (fun e -> e.ns)
  @ verdicts "minor-allocated-words" gate_words words_threshold (fun e -> e.words)

let pp_verdict oc v =
  Printf.fprintf oc "REGRESSION %s %s: %.1f -> %.1f (%+.1f%%)\n" v.test v.metric
    v.baseline v.current v.delta_pct
