let matches ~name ~aliases key =
  String.equal name key || List.exists (String.equal key) aliases

module Windowed = struct
  type t = {
    name : string;
    aliases : string list;
    make : 's 'm. seed:int -> ('s, 'm) Strategy.windowed;
  }

  let all =
    [
      { name = "benign"; aliases = []; make = (fun ~seed:_ -> Benign.windowed ()) };
      { name = "silence-first-t"; aliases = []; make = (fun ~seed:_ -> Silence.first_t) };
      { name = "silence-last-t"; aliases = [ "silence" ]; make = (fun ~seed:_ -> Silence.last_t) };
      {
        name = "silence-rotating";
        aliases = [];
        make =
          (fun ~seed:_ config ->
            Silence.rotating ~period:3 ~count:(Dsim.Engine.fault_bound config) config);
      };
      { name = "silence-random"; aliases = []; make = (fun ~seed -> Silence.random ~seed) };
      { name = "reset-rotating"; aliases = []; make = (fun ~seed:_ -> Reset_storm.rotating ()) };
      { name = "reset-random"; aliases = []; make = (fun ~seed -> Reset_storm.random ~seed ()) };
      {
        name = "reset-targeted";
        aliases = [];
        make = (fun ~seed:_ -> Reset_storm.target_undecided ());
      };
      {
        name = "reset+silence";
        aliases = [];
        make = (fun ~seed -> Reset_storm.with_silence ~seed ());
      };
      { name = "balancing"; aliases = []; make = (fun ~seed:_ -> Split_vote.windowed ()) };
      {
        name = "balance+reset";
        aliases = [];
        make = (fun ~seed:_ -> Split_vote.windowed_with_resets ());
      };
      { name = "split-brain"; aliases = []; make = (fun ~seed:_ -> Split_brain.windowed ()) };
      {
        name = "lookahead";
        aliases = [];
        make = (fun ~seed -> Lookahead.windowed ~samples:4 ~horizon:3 ~seed ());
      };
    ]

  let names = List.map (fun e -> e.name) all
  let find key = List.find_opt (fun e -> matches ~name:e.name ~aliases:e.aliases key) all
end

module Stepwise = struct
  type t = {
    name : string;
    aliases : string list;
    make : 's 'm. seed:int -> ('s, 'm) Strategy.stepwise;
  }

  let all =
    [
      { name = "benign"; aliases = []; make = (fun ~seed:_ -> Benign.lockstep ()) };
      {
        name = "random";
        aliases = [];
        make = (fun ~seed -> Benign.random_fair ~seed ~drop_probability:0.3 ());
      };
      { name = "balancing"; aliases = []; make = (fun ~seed:_ -> Split_vote.stepwise ()) };
      { name = "echo-chamber"; aliases = []; make = (fun ~seed:_ -> Echo_chamber.stepwise ()) };
      { name = "crash-start"; aliases = []; make = (fun ~seed:_ -> Crash.at_start ~crash:[ 0 ]) };
      { name = "crash-late"; aliases = []; make = (fun ~seed:_ -> Crash.before_decision ()) };
      {
        name = "byz-flip";
        aliases = [];
        make = (fun ~seed:_ -> Byzantine.lockstep ~corrupt:[ 0 ] ~flavour:Flip ());
      };
      {
        name = "byz-equivocate";
        aliases = [];
        make = (fun ~seed:_ -> Byzantine.lockstep ~corrupt:[ 0 ] ~flavour:Equivocate ());
      };
    ]

  let names = List.map (fun e -> e.name) all
  let find key = List.find_opt (fun e -> matches ~name:e.name ~aliases:e.aliases key) all
end
