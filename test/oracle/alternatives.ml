open Optimizer

let leaf model card i =
  let seq = Plan.seq_scan model card i in
  match Plan.index_scan model card i with
  | Some idx -> [ seq; idx ]
  | None -> [ seq ]

let join model card a b =
  let rows = Card.card card (Relset.union a.Plan.rset b.Plan.rset) in
  [
    Plan.hash_join model ~rows ~build:a ~probe:b;
    Plan.hash_join model ~rows ~build:b ~probe:a;
    Plan.nl_join model ~rows ~outer:a ~inner:b;
    Plan.nl_join model ~rows ~outer:b ~inner:a;
    Plan.merge_join model ~rows ~left:a ~right:b;
  ]
