(* R10 positive, layer half: a function of the priced layer does the
   work without its charge, silently flattering the benchmark numbers. *)
let verify ctx keys scheme ~msg s =
  ignore ctx;
  Threshold.verify_h scheme ~h:(Keys.hash_to_field keys msg) s
