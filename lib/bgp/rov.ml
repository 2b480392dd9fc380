type t = Rpki.Validation.db

let create db = db
let state_of t (r : Route.t) = Rpki.Validation.validate t r.Route.prefix (Route.origin r)
let accepts t r = state_of t r <> Rpki.Validation.Invalid
