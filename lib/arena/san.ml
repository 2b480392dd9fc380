exception Violation of string

let env_enabled =
  match Sys.getenv_opt "ARENA_SANITIZE" with
  | Some ("1" | "true" | "on" | "yes") -> true
  | Some _ | None -> false

let flag = ref env_enabled
let enabled () = !flag
let set_enabled b = flag := b
  [@@lint.test_only "adversarial hook: tests switch the sanitizer on and off in-process"]

let poison = 0xDEAD_BEEF

(* The +1 keeps the tag bits nonzero, so a tagged handle is
   distinguishable from a raw index; -1 passes through untagged so
   absence tests ([h < 0]) keep working. *)
let tag ~gen i = if i < 0 then i else ((gen.(i) + 1) lsl 32) lor i

(* Violations are meant to abort the offending computation: the raise
   is the point, and the message allocation only happens on the
   failure path — hence the blanket waivers for the typed rules that
   would otherwise flag every accessor reachable from a hot or
   handler-rooted chain. *)
let fail ~store ~op ~handle msg =
  raise (Violation (Printf.sprintf "%s.%s: handle %#x: %s" store op handle msg))
  [@@lint.alloc_ok] [@@lint.raise_ok]

let stale ~store ~op ~handle ~slot ~gen =
  fail ~store ~op ~handle
    (Printf.sprintf
       "stale generation %d; slot %d is now at generation %d (held across reset, or \
        slot recycled after free)"
       ((handle lsr 32) - 1) slot gen)
  [@@lint.alloc_ok] [@@lint.raise_ok]

(* Bounds and liveness always; generation only when the handle carries
   tag bits, so raw indices from internal column walks stay legal. *)
let check ~store ~op ~gen ~mark ~used h =
  let i = h land 0xffff_ffff in
  let g = h lsr 32 in
  if h < 0 || i >= used then
    fail ~store ~op ~handle:h "index out of bounds (freed store or alien handle?)"
  else if mark.(i) < 0 then fail ~store ~op ~handle:h "use-after-free: slot is on the freelist"
  else if g <> 0 && g - 1 <> gen.(i) then stale ~store ~op ~handle:h ~slot:i ~gen:gen.(i)
  else i
