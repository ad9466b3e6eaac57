let threshold_activation ~ub_log ~log_theta = ub_log -. log_theta

let product_bound ub =
  if not (ub > 0. && Float.is_finite ub) then ub
  else
    let m, e = Float.frexp ub in
    if m = 0.5 then ub else Float.ldexp 1. e
