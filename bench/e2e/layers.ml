(* Per-layer attribution for the traced pass.

   Spans are taken from the benchmark's side of each layer boundary:
   around the strategy call (adversary), [Window.validate], the engine
   entry points and the runner's per-iteration stop check (which reads
   the engine), [Trace_lint.audit] and [Explore.run], plus inside a
   wrapped [Protocol.t] whose [outgoing]/[on_deliver]/[on_reset] fields
   time and count themselves.  Nothing inside [lib/] is instrumented.

   Self time of a span is its duration minus the protocol time nested
   in it (protocol transitions only ever run inside an engine, strategy
   or explorer call), and likewise for minor words.  Everything here is
   allocation-free on the hot path: clock and allocation counters are
   read as unboxed ints, accumulators are mutable int fields, and
   spans never nest in each other except for the protocol, so one
   open-span slot suffices. *)

let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())
let minor_words () = int_of_float (Gc.minor_words ())

type layer =
  | Adversary
  | Validate
  | Engine
  | Stop
  | Deliver
  | Outgoing
  | Reset
  | Audit
  | Explore

let layers = [ Adversary; Validate; Engine; Stop; Deliver; Outgoing; Reset; Audit; Explore ]

let index = function
  | Adversary -> 0
  | Validate -> 1
  | Engine -> 2
  | Stop -> 3
  | Deliver -> 4
  | Outgoing -> 5
  | Reset -> 6
  | Audit -> 7
  | Explore -> 8

let count = List.length layers

let name = function
  | Adversary -> "adversary"
  | Validate -> "window.validate"
  | Engine -> "engine"
  | Stop -> "engine.stop_check"
  | Deliver -> "protocol.on_deliver"
  | Outgoing -> "protocol.outgoing"
  | Reset -> "protocol.on_reset"
  | Audit -> "trace_lint"
  | Explore -> "mcheck.explore"

(* Per layer, cumulative since [create]: calls, self ns, self words. *)
type t = {
  calls : int array;
  ns : int array;
  words : int array;
  mutable protocol_ns : int;
  mutable protocol_words : int;
  mutable open_t0 : int;
  mutable open_w0 : int;
  mutable open_pns : int;
  mutable open_pw : int;
  (* per-execution rows: seed, total ns, total words, then per layer
     (calls, ns, words) deltas *)
  mutable rows : int array list;
  mutable exec_t0 : int;
  mutable exec_w0 : int;
  exec_base : int array;
}

let create () =
  {
    calls = Array.make count 0;
    ns = Array.make count 0;
    words = Array.make count 0;
    protocol_ns = 0;
    protocol_words = 0;
    open_t0 = 0;
    open_w0 = 0;
    open_pns = 0;
    open_pw = 0;
    rows = [];
    exec_t0 = 0;
    exec_w0 = 0;
    exec_base = Array.make (3 * count) 0;
  }

(* Spans are back to back: [mark tr l] attributes everything since the
   previous [mark] (or [start]) to layer [l] and starts the next span
   at the same instant, so each boundary costs one clock read and one
   allocation-counter read, and no time falls between spans. *)
let start tr =
  tr.open_pns <- tr.protocol_ns;
  tr.open_pw <- tr.protocol_words;
  tr.open_w0 <- minor_words ();
  tr.open_t0 <- now_ns ()

let mark tr layer =
  let t1 = now_ns () in
  let w1 = minor_words () in
  let i = index layer in
  tr.calls.(i) <- tr.calls.(i) + 1;
  tr.ns.(i) <- tr.ns.(i) + (t1 - tr.open_t0) - (tr.protocol_ns - tr.open_pns);
  tr.words.(i) <- tr.words.(i) + (w1 - tr.open_w0) - (tr.protocol_words - tr.open_pw);
  tr.open_pns <- tr.protocol_ns;
  tr.open_pw <- tr.protocol_words;
  tr.open_w0 <- w1;
  tr.open_t0 <- t1

let protocol_span tr i t0 w0 =
  let t1 = now_ns () in
  let w1 = minor_words () in
  tr.calls.(i) <- tr.calls.(i) + 1;
  tr.ns.(i) <- tr.ns.(i) + (t1 - t0);
  tr.words.(i) <- tr.words.(i) + (w1 - w0);
  tr.protocol_ns <- tr.protocol_ns + (t1 - t0);
  tr.protocol_words <- tr.protocol_words + (w1 - w0)

(* The same protocol with its three transition fields timed.  The
   wrapper closures are built once per protocol, not per call. *)
let wrap_protocol tr (p : ('s, 'm) Dsim.Protocol.t) : ('s, 'm) Dsim.Protocol.t =
  let deliver = index Deliver and outgoing = index Outgoing and reset = index Reset in
  {
    p with
    outgoing =
      (fun s ->
        let w0 = minor_words () in
        let t0 = now_ns () in
        let r = p.outgoing s in
        protocol_span tr outgoing t0 w0;
        r);
    on_deliver =
      (fun s ~src m rng ->
        let w0 = minor_words () in
        let t0 = now_ns () in
        let r = p.on_deliver s ~src m rng in
        protocol_span tr deliver t0 w0;
        r);
    on_reset =
      (fun s ->
        let w0 = minor_words () in
        let t0 = now_ns () in
        let r = p.on_reset s in
        protocol_span tr reset t0 w0;
        r);
  }

let begin_exec tr =
  for i = 0 to count - 1 do
    tr.exec_base.(3 * i) <- tr.calls.(i);
    tr.exec_base.((3 * i) + 1) <- tr.ns.(i);
    tr.exec_base.((3 * i) + 2) <- tr.words.(i)
  done;
  tr.exec_w0 <- minor_words ();
  tr.exec_t0 <- now_ns ()

let end_exec tr ~seed =
  let t1 = now_ns () in
  let w1 = minor_words () in
  let row = Array.make (3 + (3 * count)) 0 in
  row.(0) <- seed;
  row.(1) <- t1 - tr.exec_t0;
  row.(2) <- w1 - tr.exec_w0;
  for i = 0 to count - 1 do
    row.(3 + (3 * i)) <- tr.calls.(i) - tr.exec_base.(3 * i);
    row.(4 + (3 * i)) <- tr.ns.(i) - tr.exec_base.((3 * i) + 1);
    row.(5 + (3 * i)) <- tr.words.(i) - tr.exec_base.((3 * i) + 2)
  done;
  tr.rows <- row :: tr.rows

(* Span time over all finished executions: what every layer's self
   time is a share of. *)
let exec_ns tr = List.fold_left (fun ns row -> ns + row.(1)) 0 tr.rows

(* One JSON object per execution, span id = seed. *)
let write_jsonl tr ~workload path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun row ->
          Printf.fprintf oc "{\"workload\":\"%s\",\"span\":%d,\"ns\":%d,\"minor_words\":%d,\"layers\":{"
            workload row.(0) row.(1) row.(2);
          List.iteri
            (fun i layer ->
              Printf.fprintf oc "%s\"%s\":{\"count\":%d,\"ns\":%d,\"minor_words\":%d}"
                (if i = 0 then "" else ",")
                (name layer)
                row.(3 + (3 * i))
                row.(4 + (3 * i))
                row.(5 + (3 * i)))
            layers;
          output_string oc "}}\n")
        (List.rev tr.rows))
