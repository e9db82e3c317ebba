(* The exploration-engine flags shared by tamc and ranav: search order,
   zone abstraction, slicing and worker domains. *)

open Cmdliner
module Reach = Ita_mc.Reach

(* A command-line converter over one of [Reach]'s knob parsers, printing
   the same name the parser accepts. *)
let knob_conv parse name =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (parse s)),
      fun ppf v -> Format.pp_print_string ppf (name v) )

let order_arg =
  Arg.(
    value
    & opt (knob_conv Reach.parse_order Reach.order_name) Reach.Bfs
    & info [ "order" ] ~doc:"bfs/dfs/rdfs")

let abstraction_arg =
  Arg.(
    value
    & opt
        (knob_conv Reach.parse_abstraction Reach.abstraction_name)
        Reach.ExtraLU
    & info [ "abstraction" ]
        ~doc:
          "zone abstraction: extralu (default) or lusim (store \
           unextrapolated zones, subsume with the a<|LU simulation — \
           coarsest)")

let slicing_arg =
  Arg.(
    value
    & opt
        (knob_conv Reach.parse_slicing Reach.slicing_name)
        Reach.CoiMerge
    & info [ "slicing" ]
        ~doc:
          "query-directed model reduction before exploring: coimerge \
           (default; cone-of-influence slice plus quasi-equal clock \
           merging) or off (oracle)")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ]
        ~doc:
          "worker domains for the zone exploration (default: the \
           TAMC_DOMAINS environment variable, else the machine's core \
           count); 1 spawns no domain and searches sequentially")
