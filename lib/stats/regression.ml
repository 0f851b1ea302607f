type fit = { slope : float; intercept : float; r_squared : float; n_points : int }

let linear points =
  let n = List.length points in
  if n < 2 then invalid_arg "Regression.linear: need at least two points";
  let fn = float_of_int n in
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 points in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points in
  let mx = sx /. fn and my = sy /. fn in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. ((x -. mx) *. (x -. mx))) 0.0 points in
  let sxy =
    List.fold_left (fun acc (x, y) -> acc +. ((x -. mx) *. (y -. my))) 0.0 points
  in
  let syy = List.fold_left (fun acc (_, y) -> acc +. ((y -. my) *. (y -. my))) 0.0 points in
  if Float.equal sxx 0.0 then invalid_arg "Regression.linear: all x values identical";
  let slope = sxy /. sxx in
  let intercept = my -. (slope *. mx) in
  let r_squared = if Float.equal syy 0.0 then 1.0 else sxy *. sxy /. (sxx *. syy) in
  { slope; intercept; r_squared; n_points = n }

let log2 x = log x /. log 2.0

let log2_linear points =
  let usable = List.filter_map (fun (x, y) -> if y > 0.0 then Some (x, log2 y) else None) points in
  linear usable

let loglog points =
  let usable =
    List.filter_map
      (fun (x, y) -> if x > 0.0 && y > 0.0 then Some (log2 x, log2 y) else None)
      points
  in
  linear usable
