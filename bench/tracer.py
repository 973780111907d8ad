"""In-memory span tracer that wraps votesim's layer functions from outside.

Each traced function is replaced, at every module name it is bound under
(``encrypt_vote`` lives in both ``votesim.hev`` and ``votesim.hevs``), by a
wrapper that records one span: (name, start, end, parent span, op id).
``GroupParams`` methods are wrapped on the class. Nothing inside the library
changes, and ``remove`` restores every original binding.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

#: the layer functions whose calls and self time the traced run reports
LAYER_FUNCTIONS = {
    "group": ("exp", "is_element", "discrete_log_bounded"),
    "hev": ("keygen_share", "encrypt_vote", "aggregate", "decryption_share", "combine_decrypt"),
    "hevs": (
        "combine_sampled_public_key",
        "combine_sampled_decrypt",
        "run_sampled_election",
        "make_sampling_plan",
        "mode_decision",
    ),
    "adversary": ("assign_roles", "fake_decryption_share"),
    "seeding": ("derive_seed", "spawn"),
    "experiments": ("run_trial",),
    "simnet": ("run_election", "transcript_lines", "replay"),
    "bsv": ("signer_keygen", "blind", "sign_blinded", "unblind", "verify_ballot"),
}

#: GroupParams methods, wrapped on the class rather than on a module
GROUP_METHODS = ("exp", "is_element")

LABELS = tuple(f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns)


class Tracer:
    """Records spans while installed; folds them into per-label totals."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        #: sampled-key outcomes, counted from run_sampled_election's results
        self.samples: Counter = Counter()
        self.kept_spans: list = []
        self._patches: list = []

    def _wrap(self, label, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.op)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_samples(self, args, kwargs, results):
        votes, roles = args[1], args[2]
        truth = sum(v for v, role in zip(votes, roles) if role.honest)
        for r in results:
            if r.element is None:
                self.samples["blocked"] += 1
            elif r.tally == truth:
                self.samples["clean"] += 1
            else:
                self.samples["garbage"] += 1

    def install(self) -> None:
        from votesim.group import GroupParams

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "votesim" or name.startswith("votesim."))]
        for mod_name, fn_names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"votesim.{mod_name}"]
            for fn_name in fn_names:
                label = f"{mod_name}.{fn_name}"
                if mod_name == "group" and fn_name in GROUP_METHODS:
                    original = getattr(GroupParams, fn_name)
                    self._patch(GroupParams, fn_name, self._wrap(label, original))
                    continue
                original = getattr(home, fn_name)
                hook = self._count_samples if label == "hevs.run_sampled_election" else None
                wrapper = self._wrap(label, original, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def fold(self, keep: bool = False) -> None:
        """Add the recorded spans to the totals and clear them.

        Self time is a span's duration minus the durations of its direct
        children. With keep=True the raw spans are also kept for ``dump``.
        """
        spans = self.spans
        for label, start, end, parent, _ in spans:
            duration = end - start
            self.calls[label] += 1
            self.self_ns[label] += duration
            if parent >= 0:
                self.self_ns[spans[parent][0]] -= duration
        if keep:
            self.kept_spans.extend(spans)
        spans.clear()

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines: name, start/end ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for label, start, end, parent, op in self.kept_spans:
                fh.write(json.dumps([label, start, end, parent, op]) + "\n")
