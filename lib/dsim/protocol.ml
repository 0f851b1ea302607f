type props = {
  forgetful : bool;
  fully_communicative : bool;
}

type ('s, 'm) t = {
  name : string;
  init : n:int -> t:int -> id:int -> input:bool -> 's;
  outgoing : 's -> 's * 'm Step.send list;
  on_deliver : 's -> src:int -> 'm -> Prng.Stream.t -> 's;
  on_reset : 's -> 's;
  output : 's -> bool option;
  observe : 's -> Obs.t;
  message_bit : 'm -> bool option;
  message_round : 'm -> int option;
  message_origin : 'm -> int option;
  rewrite_bit : 'm -> bool -> 'm option;
  state_core : 's -> string;
  props : props;
  add_message : Buffer.t -> 'm -> unit;
}

let default_props = { forgetful = false; fully_communicative = false }
