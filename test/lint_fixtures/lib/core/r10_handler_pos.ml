(* R10 positive, handler half: a file with handlers charges and calls
   the priced primitive itself, so nothing ties the charge to the work
   (deleting either line would go unnoticed).  Two findings. *)
let on_proof t ctx ~seq ~proof =
  Engine.charge ctx (Cost_model.Tally.note "proof_verify" Cost_model.bls_verify);
  if Threshold.verify t.key ~msg:seq proof then accept t ~seq
