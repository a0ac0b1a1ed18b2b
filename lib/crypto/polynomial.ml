type t = Field.t array

let of_coeffs c = Array.copy c

let random rng ~degree ~const =
  Array.init (degree + 1) (fun i -> if i = 0 then const else Field.random rng)

let eval t x =
  let acc = ref Field.zero in
  for i = Array.length t - 1 downto 0 do
    acc := Field.add (Field.mul !acc x) t.(i)
  done;
  !acc

let lagrange_coeffs_at_zero xs =
  if Array.exists (Field.equal Field.zero) xs then
    invalid_arg "lagrange_coeffs_at_zero: zero x-coordinate";
  Array.iteri
    (fun i xi ->
      for j = i + 1 to Array.length xs - 1 do
        if Field.equal xi xs.(j) then
          invalid_arg "lagrange_coeffs_at_zero: duplicate x-coordinate"
      done)
    xs;
  (* value = sum_i y_i * prod_{j<>i} x_j / (x_j - x_i).
     With N = prod_j x_j the i-th coefficient is N / (x_i * prod_{j<>i}
     (x_j - x_i)); all k denominators are inverted together with
     Montgomery's batch-inversion trick (3k multiplications + one field
     inversion instead of O(k^2) inversions).  This works for any
     abscissae; {!Sbft_crypto.Threshold}, whose abscissae are the signer
     ids 1..n, computes the same coefficients from per-scheme tables, and
     the tests hold it to this reference. *)
  let k = Array.length xs in
  let numerator = Array.fold_left Field.mul Field.one xs in
  let denoms =
    Array.init k (fun i ->
        let xi = xs.(i) in
        let p = ref xi in
        for j = 0 to k - 1 do
          if not (Int.equal j i) then p := Field.mul !p (Field.sub xs.(j) xi)
        done;
        !p)
  in
  (* Batch inversion: prefix products, one inversion, then unwind. *)
  let prefix = Array.make (k + 1) Field.one in
  for i = 0 to k - 1 do
    prefix.(i + 1) <- Field.mul prefix.(i) denoms.(i)
  done;
  let inv_all = ref (Field.inv prefix.(k)) in
  let coeffs = Array.make k Field.one in
  for i = k - 1 downto 0 do
    coeffs.(i) <- Field.mul numerator (Field.mul !inv_all prefix.(i));
    inv_all := Field.mul !inv_all denoms.(i)
  done;
  coeffs

let interpolate_at_zero ~coeffs ys =
  if not (Int.equal (Array.length coeffs) (Array.length ys)) then
    invalid_arg "interpolate_at_zero: coefficient/value length mismatch";
  let acc = ref Field.zero in
  Array.iteri (fun i c -> acc := Field.add !acc (Field.mul c ys.(i))) coeffs;
  !acc

let lagrange_at_zero points =
  let pts = Array.of_list points in
  let coeffs = lagrange_coeffs_at_zero (Array.map fst pts) in
  interpolate_at_zero ~coeffs (Array.map snd pts)
