type event =
  | Sent of { src : int; dst : int; msg_id : int; depth : int }
  | Delivered of { src : int; dst : int; msg_id : int; depth : int }
  | Dropped of { msg_id : int }
  | Reset_done of { pid : int }
  | Crashed of { pid : int }
  | Decided of { pid : int; value : bool; step : int; window : int; chain_depth : int }
  | Window_closed of { index : int }

type sink =
  | Memory
  | Ring of int
  | Chunks of { emit : string -> unit; chunk_bytes : int }

let default_chunk_bytes = 65536

let chunks ?(chunk_bytes = default_chunk_bytes) emit =
  if chunk_bytes <= 0 then invalid_arg "Trace.chunks: chunk_bytes must be positive";
  Chunks { emit; chunk_bytes }

let to_buffer ?chunk_bytes buffer = chunks ?chunk_bytes (Buffer.add_string buffer)
let to_channel ?chunk_bytes oc = chunks ?chunk_bytes (output_string oc)

(* Retained event storage behind the sink.  [Mem] is the historical
   unbounded list; [Ringbuf] keeps the last k events in a circular
   buffer; [Stream] renders each event into a scratch buffer flushed to
   the consumer in chunks, so multi-million-event runs keep O(chunk)
   live heap. *)
type store =
  | Mem of { mutable events_rev : event list }
  | Ringbuf of { slots : event array; mutable next : int; mutable stored : int }
  | Stream of { scratch : Buffer.t; chunk_bytes : int; emit : string -> unit }

type t = {
  record_events : bool;
  store : store;
  render_buf : Buffer.t;
      (* per-event render scratch for the non-stream stores: events are
         rendered once to feed the incremental fingerprint *)
  mutable hash : int64;  (* FNV-1a over the rendered event text *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable resets : int;
  mutable crashes : int;
  mutable windows_closed : int;
  mutable decisions_rev : (int * bool * int * int * int) list;
}

(* FNV-1a, same constants as Prng.Stream.derive_name: stable across
   OCaml versions and word sizes, and incremental — hashing a run
   event-by-event gives the same digest whether the events were
   retained in memory or streamed out, which is what lets the streamed
   sink prove bit-identity without holding the run in the heap. *)
let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let store_of_sink = function
  | Memory -> Mem { events_rev = [] }
  | Ring capacity ->
      if capacity < 0 then invalid_arg "Trace.create: negative ring capacity";
      Ringbuf
        {
          slots = Array.make capacity (Window_closed { index = 0 });
          next = 0;
          stored = 0;
        }
  | Chunks { emit; chunk_bytes } ->
      Stream { scratch = Buffer.create (min chunk_bytes 4096); chunk_bytes; emit }

let create ?(sink = Memory) ~record_events () =
  {
    record_events;
    store = store_of_sink sink;
    render_buf = Buffer.create 64;
    hash = fnv_offset;
    sent = 0;
    delivered = 0;
    dropped = 0;
    resets = 0;
    crashes = 0;
    windows_closed = 0;
    decisions_rev = [];
  }

let copy t =
  {
    record_events = t.record_events;
    store =
      (match t.store with
      | Mem m -> Mem { events_rev = m.events_rev }
      | Ringbuf r -> Ringbuf { r with slots = Array.copy r.slots }
      | Stream s ->
          (* The copy keeps its own scratch but shares the downstream
             consumer: interleaving is on the caller.  Lookahead forks
             record no events, so this path only runs when a streamed
             trace is copied explicitly. *)
          let scratch = Buffer.create (Buffer.length s.scratch + 64) in
          Buffer.add_buffer scratch s.scratch;
          Stream { s with scratch })
    ;
    render_buf = Buffer.create 64;
    hash = t.hash;
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    resets = t.resets;
    crashes = t.crashes;
    windows_closed = t.windows_closed;
    decisions_rev = t.decisions_rev;
  }

(* One line per event, identical text to [pp_event] plus a newline:
   the rendered stream is what the chunked sink emits and what the
   incremental fingerprint hashes, for every store. *)
let render b = function
  | Sent { src; dst; msg_id; depth } ->
      Printf.bprintf b "sent #%d %d->%d depth=%d\n" msg_id src dst depth
  | Delivered { src; dst; msg_id; depth } ->
      Printf.bprintf b "delivered #%d %d->%d depth=%d\n" msg_id src dst depth
  | Dropped { msg_id } -> Printf.bprintf b "dropped #%d\n" msg_id
  | Reset_done { pid } -> Printf.bprintf b "reset p%d\n" pid
  | Crashed { pid } -> Printf.bprintf b "crashed p%d\n" pid
  | Decided { pid; value; step; window; chain_depth } ->
      Printf.bprintf b "decided p%d=%d at step %d window %d chain %d\n" pid
        (if value then 1 else 0)
        step window chain_depth
  | Window_closed { index } -> Printf.bprintf b "window %d closed\n" index

let hash_range t b ~from ~til =
  let h = ref t.hash in
  for i = from to til - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Buffer.nth b i)))) fnv_prime
  done;
  t.hash <- !h

let flush t =
  match t.store with
  | Mem _ | Ringbuf _ -> ()
  | Stream s ->
      if Buffer.length s.scratch > 0 then begin
        s.emit (Buffer.contents s.scratch);
        Buffer.clear s.scratch
      end

(* Only reached when [record_events] is on, so the per-delivery hot
   path of plain sweeps never renders or hashes anything. *)
let note_event t event =
  match t.store with
  | Mem m ->
      m.events_rev <- event :: m.events_rev;
      Buffer.clear t.render_buf;
      render t.render_buf event;
      hash_range t t.render_buf ~from:0 ~til:(Buffer.length t.render_buf)
  | Ringbuf r ->
      let capacity = Array.length r.slots in
      if capacity > 0 then begin
        r.slots.(r.next) <- event;
        r.next <- (r.next + 1) mod capacity;
        r.stored <- min (r.stored + 1) capacity
      end;
      Buffer.clear t.render_buf;
      render t.render_buf event;
      hash_range t t.render_buf ~from:0 ~til:(Buffer.length t.render_buf)
  | Stream s ->
      let before = Buffer.length s.scratch in
      render s.scratch event;
      hash_range t s.scratch ~from:before ~til:(Buffer.length s.scratch);
      if Buffer.length s.scratch >= s.chunk_bytes then flush t

let record t event =
  (match event with
  | Sent _ -> t.sent <- t.sent + 1
  | Delivered _ -> t.delivered <- t.delivered + 1
  | Dropped _ -> t.dropped <- t.dropped + 1
  | Reset_done _ -> t.resets <- t.resets + 1
  | Crashed _ -> t.crashes <- t.crashes + 1
  | Window_closed _ -> t.windows_closed <- t.windows_closed + 1
  | Decided { pid; value; step; window; chain_depth } ->
      t.decisions_rev <- (pid, value, step, window, chain_depth) :: t.decisions_rev);
  if t.record_events then note_event t event

(* Bulk accounting for a lazily-expanded broadcast: the engine reserves
   ids [first .. first + count - 1] (id = first + dst) in one step, so
   the counter bumps once by [count]; the per-destination [Sent] events
   are only materialized when the trace keeps event lists at all. *)
let record_broadcast t ~src ~first ~count ~depth =
  t.sent <- t.sent + count;
  if t.record_events then
    for dst = 0 to count - 1 do
      note_event t (Sent { src; dst; msg_id = first + dst; depth })
    done

let events t =
  match t.store with
  | Mem m -> List.rev m.events_rev
  | Ringbuf r ->
      let capacity = Array.length r.slots in
      let start = (r.next - r.stored + (2 * capacity)) mod (max capacity 1) in
      List.init r.stored (fun i -> r.slots.((start + i) mod capacity))
  | Stream _ -> []

let events_fingerprint t = Printf.sprintf "%016Lx" t.hash

let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
let resets t = t.resets
let crashes t = t.crashes
let windows_closed t = t.windows_closed
let decisions t = List.rev t.decisions_rev

let first_decision t =
  match List.rev t.decisions_rev with [] -> None | d :: _ -> Some d

let pp_event ppf = function
  | Sent { src; dst; msg_id; depth } ->
      Format.fprintf ppf "sent #%d %d->%d depth=%d" msg_id src dst depth
  | Delivered { src; dst; msg_id; depth } ->
      Format.fprintf ppf "delivered #%d %d->%d depth=%d" msg_id src dst depth
  | Dropped { msg_id } -> Format.fprintf ppf "dropped #%d" msg_id
  | Reset_done { pid } -> Format.fprintf ppf "reset p%d" pid
  | Crashed { pid } -> Format.fprintf ppf "crashed p%d" pid
  | Decided { pid; value; step; window; chain_depth } ->
      Format.fprintf ppf "decided p%d=%d at step %d window %d chain %d" pid
        (if value then 1 else 0)
        step window chain_depth
  | Window_closed { index } -> Format.fprintf ppf "window %d closed" index

let pp ppf t =
  Format.fprintf ppf
    "sent=%d delivered=%d dropped=%d resets=%d crashes=%d windows=%d decisions=%d"
    t.sent t.delivered t.dropped t.resets t.crashes t.windows_closed
    (List.length t.decisions_rev)
