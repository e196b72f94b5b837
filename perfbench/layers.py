"""Per-layer timing of repstab from outside the library.

Tracer.install() wraps the public functions of each layer (module) in
every repstab namespace that holds them, so calls made through a name
imported elsewhere (``fbmodules.decompose``, ``stability.terms_at``,
``cli.verify_equivalence``) are seen as well.  Each wrapped call is a
span; a span's self time is its duration minus the time covered by the
spans it encloses.  Spans are folded into per-function totals as they
close, so memory stays constant however many calls a run makes.

``characters.irr_char`` runs hundreds of thousands of times per scan, so
it is counted, not timed.
"""

import sys
from time import perf_counter

from repstab import characters

# (module, function) pairs timed as spans
SPANS = (
    ("partitions", "partitions_of"),
    ("partitions", "cycle_types_of"),
    ("characters", "character_table"),
    ("characters", "decompose"),
    ("cyclepoly", "eval_rho_all"),
    ("frobenius", "frobenius_poly_stable"),
    ("frobenius", "frobenius_poly_of_module"),
    ("pieri", "projective_terms"),
    ("fbmodules", "terms_at"),
    ("fbmodules", "character_at"),
    ("stability", "rank_rs_estimate"),
    ("stability", "rank_pc_estimate"),
    ("stability", "verify_equivalence"),
    ("cli", "run"),
)


class _Stat:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.irr_char_calls = 0
        self.classes = 0  # cycle types evaluated by eval_rho_all
        self.factors = 0  # irreducible factors produced by projective_terms
        self.socles = set()  # distinct socles asked of frobenius_poly_stable
        self._open = []  # child time covered so far, one slot per open span

    def _span(self, name, fn, on_result=None):
        stat = self.stats.setdefault(name, _Stat())
        open_spans = self._open

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                covered = open_spans.pop()
                stat.calls += 1
                stat.s += dt
                stat.self_s += dt - covered
                if open_spans:
                    open_spans[-1] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counted_irr_char(self, fn):
        def wrapper(lam, t):
            self.irr_char_calls += 1
            return fn(lam, t)

        return wrapper

    def _on_eval(self, args, result):
        self.classes += len(result.values)

    def _on_pieri(self, args, result):
        self.factors += result.total_multiplicity()

    def _on_stable(self, args, result):
        self.socles.add(args[0])

    def install(self):
        hooks = {
            "eval_rho_all": self._on_eval,
            "projective_terms": self._on_pieri,
            "frobenius_poly_stable": self._on_stable,
        }
        for module, name in SPANS:
            orig = getattr(sys.modules[f"repstab.{module}"], name)
            _replace_everywhere(
                orig, self._span(f"{module}.{name}", orig, hooks.get(name))
            )
        _replace_everywhere(characters.irr_char, self._counted_irr_char(characters.irr_char))
        cls = characters.IrrDecomposition
        cls.character = self._span("characters.IrrDecomposition.character", cls.character)

    def report(self):
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.s"] = stat.s
            out[f"{name}.self_s"] = stat.self_s
        out["characters.irr_char.calls"] = self.irr_char_calls
        out["cyclepoly.eval_rho_all.classes"] = self.classes
        out["pieri.projective_terms.factors"] = self.factors
        out["frobenius.frobenius_poly_stable.distinct"] = len(self.socles)
        return out


def _replace_everywhere(orig, replacement):
    """Rebind every repstab module attribute that is `orig`."""
    for modname, module in list(sys.modules.items()):
        if modname != "repstab" and not modname.startswith("repstab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, replacement)
