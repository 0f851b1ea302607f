(* Differential driving of a protocol against its verbatim predecessor
   (the [*_oracle.ml] modules): both get the same calls, each with its
   own copy of one seeded stream, and after every call must agree on
   everything a caller can read: state core, output, observation and
   pending sends.

   A case is a list of bursts, resets and drains.  A burst's votes all
   go to one round, given as an offset from the round the oracle is in
   when the burst starts (while it recovers from a reset: the round it
   was in before), so cases reach past, current and future rounds,
   fill quorums and let a recovering processor re-join. *)

type 'v op =
  | Burst of int * (int * 'v) list  (* round offset, (sender, vote) *)
  | Reset
  | Drain

type 'v case = { n : int; t : int; id : int; input : bool; seed : int; ops : 'v op list }

let show_case show_vote c =
  let op = function
    | Burst (offset, votes) ->
        Printf.sprintf "%+d:[%s]" offset
          (String.concat ","
             (List.map (fun (src, v) -> Printf.sprintf "%d%s" src (show_vote v)) votes))
    | Reset -> "reset"
    | Drain -> "drain"
  in
  Printf.sprintf "n=%d t=%d id=%d input=%b seed=%d ops=[%s]" c.n c.t c.id c.input c.seed
    (String.concat "; " (List.map op c.ops))

(* A burst's senders are distinct, in random order, sometimes all [n]
   of them, then a few repeat.  [vote rs] starts a burst: it draws the
   burst's main vote and returns the sampler of its votes.  [sizes]
   lists the (n, t) pairs to draw from. *)
let case_gen ~sizes ~vote rs =
  let int k = Random.State.int rs k in
  let n, t = sizes.(int (Array.length sizes)) in
  let burst () =
    let senders = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = int (i + 1) in
      let s = senders.(i) in
      senders.(i) <- senders.(j);
      senders.(j) <- s
    done;
    let k = if Random.State.bool rs then n else 1 + int n in
    let sample = vote rs in
    let fresh = List.init k (fun i -> (senders.(i), sample ())) in
    fresh @ List.init (int 3) (fun _ -> (senders.(int k), sample ()))
  in
  let op () =
    match int 12 with
    | 0 -> Reset
    | 1 | 2 -> Drain
    | _ -> Burst ([| 0; 0; 0; 0; 1; 1; 2; -1; -2 |].(int 9), burst ())
  in
  {
    n;
    t;
    id = int n;
    input = Random.State.bool rs;
    seed = int 1_000;
    ops = List.init (1 + int 30) (fun _ -> op ());
  }

(* [message round v] is the message vote [v] makes for [round]. *)
let agrees (type s o m) (p : (s, m) Dsim.Protocol.t) (oracle : (o, m) Dsim.Protocol.t)
    ~message c =
  let same s o =
    String.equal (p.state_core s) (oracle.state_core o)
    && p.output s = oracle.output o
    && p.observe s = oracle.observe o
    && snd (p.outgoing s) = snd (oracle.outgoing o)
  in
  let rng = Prng.Stream.root c.seed and oracle_rng = Prng.Stream.root c.seed in
  let rec votes s o round = function
    | [] -> Some (s, o)
    | (src, v) :: rest ->
        let m = message round v in
        let s = p.on_deliver s ~src m rng and o = oracle.on_deliver o ~src m oracle_rng in
        if same s o then votes s o round rest else None
  in
  let rec go s o last = function
    | [] -> true
    | op :: rest -> (
        let current = (oracle.observe o).Dsim.Obs.round in
        let last = if current >= 0 then current else last in
        match op with
        | Reset ->
            let s = p.on_reset s and o = oracle.on_reset o in
            same s o && go s o last rest
        | Drain ->
            let s, _ = p.outgoing s and o, _ = oracle.outgoing o in
            same s o && go s o last rest
        | Burst (offset, vs) -> (
            match votes s o (last + offset) vs with
            | Some (s, o) -> go s o last rest
            | None -> false))
  in
  let s = p.init ~n:c.n ~t:c.t ~id:c.id ~input:c.input
  and o = oracle.init ~n:c.n ~t:c.t ~id:c.id ~input:c.input in
  same s o && go s o 1 c.ops
