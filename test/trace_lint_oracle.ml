(* The trace checker as it stood before [Lintkit.Trace_lint.check] was
   rewritten over dense arrays, kept verbatim (hash-table ledger, tuple
   keys, per-processor "heard" tables) as the oracle of the differential
   test in [test_lint.ml]: both must return the same violation list,
   detail strings and order included, on every input.  One rule was
   changed in both later: a window may not close while a message it
   sent is neither delivered nor dropped (this replaced the check that
   a delivery carries a message of its own window, which it implies). *)

open Lintkit.Trace_lint

type msg_info = {
  src : int;
  dst : int;
  depth : int;
  sent_window : int;
  mutable consumed : string option;  (* "delivered" / "dropped" *)
}

let check config events =
  let violations = ref [] in
  let flag invariant fmt =
    Format.kasprintf
      (fun detail -> violations := { invariant; detail } :: !violations)
      fmt
  in
  let in_range pid = pid >= 0 && pid < config.n in
  (* Message ledger: id -> endpoints, depth, window of the Sent. *)
  let ledger : (int, msg_info) Hashtbl.t = Hashtbl.create 1024 in
  (* Per-channel last delivered id, for FIFO. *)
  let last_delivered : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  (* Per-processor max delivered depth, for the depth invariant. *)
  let recv_depth = Array.make (max config.n 1) 0 in
  (* Per-processor distinct senders heard from, for the quorum check. *)
  let heard = Array.init (max config.n 1) (fun _ -> Hashtbl.create 16) in
  let decided : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let window = ref 0 in
  let resets_this_window = ref 0 in
  (* Messages sent in the current window and not yet consumed. *)
  let open_in_window = ref 0 in
  let consume msg_id how k =
    match Hashtbl.find_opt ledger msg_id with
    | None -> flag Provenance "%s message #%d was never sent" how msg_id
    | Some info -> (
        match info.consumed with
        | Some earlier ->
            flag Provenance "message #%d %s after already being %s" msg_id how earlier
        | None ->
            info.consumed <- Some how;
            if info.sent_window = !window then decr open_in_window;
            k info)
  in
  List.iter
    (fun event ->
      match (event : Dsim.Trace.event) with
      | Sent { src; dst; msg_id; depth } ->
          if not (in_range src && in_range dst) then
            flag Provenance "message #%d has endpoints %d->%d outside 0..%d" msg_id
              src dst (config.n - 1);
          if Hashtbl.mem ledger msg_id then
            flag Provenance "message id #%d sent twice" msg_id
          else begin
            Hashtbl.replace ledger msg_id
              { src; dst; depth; sent_window = !window; consumed = None };
            incr open_in_window
          end;
          if in_range src then
            let expected = recv_depth.(src) + 1 in
            if depth <> expected then
              flag Depth
                "message #%d from %d has depth %d, expected %d (1 + max delivered \
                 depth %d)"
                msg_id src depth expected recv_depth.(src)
      | Delivered { src; dst; msg_id; depth } ->
          consume msg_id "delivered" (fun info ->
              if info.src <> src || info.dst <> dst || info.depth <> depth then
                flag Provenance
                  "message #%d delivered as %d->%d depth %d but sent as %d->%d \
                   depth %d"
                  msg_id src dst depth info.src info.dst info.depth);
          if config.fifo then (
            (match Hashtbl.find_opt last_delivered (src, dst) with
            | Some prev when msg_id <= prev ->
                flag Fifo
                  "channel %d->%d delivered message #%d after #%d (ids must be \
                   strictly increasing)"
                  src dst msg_id prev
            | _ -> ());
            Hashtbl.replace last_delivered (src, dst) msg_id);
          if in_range dst then begin
            if depth > recv_depth.(dst) then recv_depth.(dst) <- depth;
            Hashtbl.replace heard.(dst) src ()
          end
      | Dropped { msg_id } -> consume msg_id "dropped" (fun _ -> ())
      | Reset_done { pid } ->
          if config.windowed then begin
            incr resets_this_window;
            if !resets_this_window = config.t + 1 then
              flag Window
                "window %d performed more than t = %d resets (processor %d was \
                 reset %d-th)"
                !window config.t pid !resets_this_window
          end
      | Crashed _ -> ()
      | Decided { pid; value; _ } ->
          (match Hashtbl.find_opt decided pid with
          | Some _ -> flag Quorum "processor %d decided twice" pid
          | None -> Hashtbl.replace decided pid value);
          (match config.decision_quorum with
          | Some quorum when in_range pid ->
              let senders = Hashtbl.length heard.(pid) in
              if senders < quorum then
                flag Quorum
                  "processor %d decided %b having heard from only %d distinct \
                   senders (quorum %d)"
                  pid value senders quorum
          | _ -> ());
          Hashtbl.iter
            (fun other v ->
              if other <> pid && Bool.equal v (not value) then
                flag Quorum "processors %d and %d decided opposite values" other
                  pid)
            decided
      | Window_closed { index } ->
          if config.windowed then begin
            (* The engine increments its window counter before recording,
               so the k-th closing event carries index k (1-based). *)
            if index <> !window + 1 then
              flag Window "window closed with index %d, expected %d" index
                (!window + 1);
            if !open_in_window > 0 then
              flag Window
                "window %d closed with %d of its messages neither delivered nor \
                 dropped"
                !window !open_in_window;
            window := !window + 1;
            resets_this_window := 0;
            open_in_window := 0
          end)
    events;
  List.rev !violations
