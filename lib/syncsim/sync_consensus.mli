(** A simple synchronous randomized consensus protocol, in the style
    analyzed by Bar-Joseph and Ben-Or [6]: per round every processor
    broadcasts its preference; on margin [> 2t] it decides, on any
    non-zero margin it adopts the majority, and on an exact tie it
    flips a local coin.

    Safety sketch (crash failures, [t < n/3]): two recipients' views of
    one round differ only in the messages of processors crashed that
    round, so their margins differ by at most [2t]; a decision margin
    [> 2t] therefore forces every live processor to at least adopt the
    same value, making the next round unanimous among the [>= n - t]
    live processors, whose margin [n - t > 2t] re-decides the value.

    Against this protocol the full-information adaptive adversary's
    only winning move is to keep every round an exact tie, which costs
    it the round's binomial deviation [Theta(sqrt n)] in crash budget —
    the coin-flipping game behind [6]'s [t / sqrt(n log n)] bound,
    reproduced by experiment E11. *)

type state

val protocol : (state, bool) Sync_engine.protocol
