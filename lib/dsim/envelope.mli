(** A message in flight: payload plus routing and causal metadata. *)

type 'm t = {
  id : int;  (** Unique, monotonically increasing per execution. *)
  src : int;
  dst : int;
  payload : 'm;
  depth : int;
      (** Causal (message-chain) depth: 1 + the maximum depth among the
          messages the sender had received before sending this one.
          This realizes Section 5's running-time measure. *)
  sent_at_step : int;  (** Engine step index at which the send occurred. *)
  sent_in_window : int;  (** Window index at send time; [-1] outside windows. *)
}
