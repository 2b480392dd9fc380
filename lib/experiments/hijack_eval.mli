(** The §4–§5 attack evaluation.

    For randomized victim/attacker pairs on a synthetic topology,
    measures the traffic captured by each attack kind under two RPKI
    configurations:

    - a {e non-minimal} ROA: the victim's /16 covered by a
      maxLength-24 ROA while only the /16 and one /24 are announced
      (the paper's running example); and
    - a {e minimal} ROA enumerating exactly the announced prefixes.

    The paper's qualitative claims this must reproduce:
    + with the non-minimal ROA, the forged-origin subprefix hijack is
      RPKI-valid and captures (nearly) all traffic for the target —
      as bad as a classic subprefix hijack without the RPKI;
    + with the minimal ROA, that hijack is Invalid and ROV-deploying
      ASes drop it — the attacker is forced to "attack the whole /16"
      with a traditional forged-origin hijack, where traffic splits
      and the majority keeps flowing to the victim;
    + a classic subprefix hijack is Invalid under either ROA. *)

type cell = {
  attack : Topology.Attack.kind;
  roa_minimal : bool;
  validity : Rpki.Validation.state;
  mean_capture : float;  (** Mean fraction of ASes routed to the attacker. *)
}

type result = { trials : int; n_as : int; rov : float; cells : cell list }

val run : seed:int -> n_as:int -> rov:float -> trials:int -> result
(** Randomizes victim (a stub AS) and attacker (another stub) each
    trial; ROV deployment is a random [rov]-fraction of ASes (the
    victim's neighbors always validate, the attacker never does).
    @raise Invalid_argument when [trials < 1]; so do {!hijack_table},
    {!rov_sweep} and {!aspa_comparison}. *)

val render : result -> string
(** Aligned text table, one row per (attack, ROA) cell. *)

val hijack_table : seed:int -> n_as:int -> rov:float -> trials:int -> string
(** [render (run ...)]. *)

val rov_sweep :
  seed:int -> n_as:int -> trials:int -> fractions:float list ->
  (float * float * float) list
(** For each ROV deployment fraction: (fraction, mean capture of a
    plain subprefix hijack under a minimal ROA, mean capture of the
    forged-origin subprefix hijack under a non-minimal ROA). The first
    falls with deployment; the second stays at ~100% no matter how
    much ROV is deployed — deployment cannot fix a bad ROA, only the
    ROA's owner can. *)

val render_rov_sweep : (float * float * float) list -> string

val aspa_comparison : seed:int -> n_as:int -> trials:int -> string
(** The extension experiment: mean capture of the forged-origin
    subprefix hijack against a non-minimal maxLength ROA, with and
    without the victim's ASPA on file (full ROV+ASPA deployment).
    The ASPA turns the paper's worst case from ~100% into 0% without
    touching the ROA. *)
