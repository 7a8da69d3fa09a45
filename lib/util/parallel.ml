type pool = int

let global () = Domain.recommended_domain_count ()
let size pool = pool
