(* R10 negative (twin of r10_layer_pos/priced.ml): the charge sits in
   the function that does the work. *)
let verify ctx keys scheme ~msg s =
  Engine.charge ctx (Tally.note "proof_verify" Cost_model.bls_verify);
  Threshold.verify_h scheme ~h:(Keys.hash_to_field keys msg) s
