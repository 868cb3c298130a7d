"""Per-layer metrics from the spans of a traced run.

The layers are the msss modules. A span's self time is its duration minus
the durations of its direct children (calls in one process never overlap).

Every traced op (a CLI command, or one ``run_simulation`` call) carries
tags:

* ``loop``: it belongs to the measured loop, not to the set-up;
* ``window``: it belongs to the count window, the deterministic part of
  the run (the set-up plus a fixed number of loop units). Counts marked
  exact are taken over the window only, so they repeat for a seed;
* ``cli``: it is a fresh-process command, whose spawn time is known;
* ``tampered``: the member whose contribution the benchmark replaced.

Timings use every traced call; "per op" values are medians over loop ops.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from common import median

DEALER_OPS = (
    "setup",
    "share_secret",
    "renew_secret",
    "add_qualified_set",
    "remove_qualified_set",
    "remove_participant",
)
PER_OP_LAYERS = ("numtheory", "dealer", "participant", "combiner", "bulletin", "simulate")
SMALL_LAYERS = ("codec", "linepoly", "accessstruct")


def _spec():
    """(name, unit, better, exact) for every per-layer metric, in report order."""
    out = [
        ("numtheory.is_probable_prime.calls", "count", "lower", True),
        ("numtheory.is_probable_prime.ms", "ms", "lower", False),
        ("numtheory.prime_proof.repeat_ratio", "ratio", "lower", True),
        ("numtheory.gen_prime.ms", "ms", "lower", False),
        ("numtheory.next_prime.ms", "ms", "lower", False),
        ("numtheory.candidates_per_prime", "count", "lower", True),
    ]
    for op in DEALER_OPS:
        out.append((f"dealer.{op}.calls", "count", "lower", True))
        out.append((f"dealer.{op}.ms.p50", "ms", "lower", False))
    out += [
        ("dealer.masks", "count", "lower", True),
        ("dealer.masks_per_member_secret", "ratio", "lower", True),
        ("participant.contribute.calls", "count", "lower", True),
        ("participant.contribute.ms.p50", "ms", "lower", False),
        ("participant.keygen.ms.p50", "ms", "lower", False),
        ("combiner.verify_contribution.calls", "count", "lower", True),
        ("combiner.verify_contribution.ms.p50", "ms", "lower", False),
        ("combiner.verify_contribution.per_contribution", "ratio", "lower", True),
        ("combiner.reconstruct.self_ms.p50", "ms", "lower", False),
        ("combiner.verify_secret.calls", "count", "lower", True),
        ("combiner.cheaters_caught_ratio", "ratio", "higher", True),
        ("bulletin.load.ms.p50", "ms", "lower", False),
        ("bulletin.save.ms.p50", "ms", "lower", False),
        ("bulletin.Board.validate.calls", "count", "lower", True),
        ("bulletin.Board.validate.self_ms.p50", "ms", "lower", False),
        ("bulletin.validate.per_command", "ratio", "lower", True),
        ("bulletin.from_document.self_ms.p50", "ms", "lower", False),
        ("bulletin.to_document.self_ms.p50", "ms", "lower", False),
        ("bulletin.board_bytes", "bytes", "lower", True),
        ("cli.startup_ms.p50", "ms", "lower", False),
        ("cli.main.self_ms.p50", "ms", "lower", False),
        ("cli.dealer_file_bytes", "bytes", "lower", True),
        ("simulate.run_simulation.self_ms", "ms", "lower", False),
        ("simulate.attack_entry.calls", "count", "lower", True),
        ("simulate.attack_entry.ms", "ms", "lower", False),
        ("codec.tag.calls", "count", "lower", True),
        ("codec.xor_combine.calls", "count", "lower", True),
        ("linepoly.interpolate_line.calls", "count", "lower", True),
        ("small_layers.ms", "ms", "lower", False),
    ]
    out += [(f"layer.{name}.self_ms", "ms", "lower", False) for name in PER_OP_LAYERS]
    out += [
        ("trace.overhead_ms", "ms", "lower", False),
        ("trace.accounted_ratio", "ratio", "higher", False),
    ]
    return out


PER_LAYER = _spec()
EXACT = [name for name, _, _, exact in PER_LAYER if exact]


def self_ns(spans) -> list[int]:
    children = [0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            children[span[1]] += span[3] - span[2]
    return [s[3] - s[2] - c for s, c in zip(spans, children)]


def layer_self_ms(op) -> defaultdict:
    """Self time of one op per layer (msss module), in ms."""
    out = defaultdict(float)
    for span, own in zip(op.spans, self_ns(op.spans)):
        out[span[0].split(".", 1)[0]] += own / 1e6
    return out


def _startup_ns(op) -> int:
    """Spawn to ``cli.main`` entry for a command; 0 for an in-process call."""
    if not op.tags.get("cli"):
        return 0
    root = next(s for s in op.spans if s[0] == "cli.main" and s[1] < 0)
    return root[2] - op.spawn_ns


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarize(ops, untraced_loop_ms, facts) -> dict:
    """Every per-layer metric, from traced ops in run order.

    ``untraced_loop_ms`` are the latencies of the loop ops that ran without
    tracing; ``facts`` holds file sizes taken at the end of the window.
    """
    window = [op for op in ops if op.tags.get("window")]
    loop = [op for op in ops if op.tags.get("loop")]
    calls = Counter(s[0] for op in window for s in op.spans)
    dur_ms = defaultdict(list)
    self_ms = defaultdict(list)
    for op in ops:
        for span, own in zip(op.spans, self_ns(op.spans)):
            dur_ms[span[0]].append((span[3] - span[2]) / 1e6)
            self_ms[span[0]].append(own / 1e6)
    layer_self = [layer_self_ms(op) for op in loop]

    def per_op_total(name):
        return median([sum((s[3] - s[2]) / 1e6 for s in op.spans if s[0] == name) for op in loop])

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    m = {}
    m["numtheory.is_probable_prime.calls"] = calls["numtheory.is_probable_prime"]
    m["numtheory.is_probable_prime.ms"] = per_op_total("numtheory.is_probable_prime")
    proven, proofs, repeats = set(), 0, 0
    searches = candidates = 0
    for op in ops:
        in_window = op.tags.get("window")
        for span in op.spans:
            if span[0] == "numtheory.is_probable_prime" and span[4][1]:
                if in_window:
                    proofs += 1
                    repeats += span[4][0] in proven
                proven.add(span[4][0])
            if in_window and span[0] in ("numtheory.gen_prime", "numtheory.next_prime"):
                searches += 1
            if (
                in_window
                and span[0] == "numtheory.is_probable_prime"
                and span[1] >= 0
                and op.spans[span[1]][0] in ("numtheory.gen_prime", "numtheory.next_prime")
            ):
                candidates += 1
    m["numtheory.prime_proof.repeat_ratio"] = _ratio(repeats, proofs)
    m["numtheory.gen_prime.ms"] = mean(dur_ms["numtheory.gen_prime"])
    m["numtheory.next_prime.ms"] = mean(dur_ms["numtheory.next_prime"])
    m["numtheory.candidates_per_prime"] = _ratio(candidates, searches)

    masks = pairs = 0
    for op in window:
        for span in op.spans:
            if span[0].startswith("dealer.") and span[4] is not None:
                masks += span[4][0]
                pairs += span[4][1]
    for name in DEALER_OPS:
        m[f"dealer.{name}.calls"] = calls[f"dealer.{name}"]
        m[f"dealer.{name}.ms.p50"] = median(dur_ms[f"dealer.{name}"])
    m["dealer.masks"] = masks
    m["dealer.masks_per_member_secret"] = _ratio(masks, pairs)

    m["participant.contribute.calls"] = calls["participant.contribute"]
    m["participant.contribute.ms.p50"] = median(dur_ms["participant.contribute"])
    m["participant.keygen.ms.p50"] = median(dur_ms["participant.keygen"])

    verdicts = right = 0
    for op in window:
        for span in op.spans:
            if span[0] == "combiner.verify_contribution":
                verdicts += 1
                right += span[4][1] == (span[4][0] != op.tags.get("tampered"))
    m["combiner.verify_contribution.calls"] = calls["combiner.verify_contribution"]
    m["combiner.verify_contribution.ms.p50"] = median(dur_ms["combiner.verify_contribution"])
    m["combiner.verify_contribution.per_contribution"] = _ratio(
        calls["combiner.verify_contribution"], calls["participant.contribute"]
    )
    m["combiner.reconstruct.self_ms.p50"] = median(self_ms["combiner.reconstruct"])
    m["combiner.verify_secret.calls"] = calls["combiner.verify_secret"]
    m["combiner.cheaters_caught_ratio"] = right / verdicts if verdicts else 1.0

    cli_window = [op for op in window if op.tags.get("cli") and op.tags.get("loop")]
    m["bulletin.load.ms.p50"] = median(dur_ms["bulletin.load"])
    m["bulletin.save.ms.p50"] = median(dur_ms["bulletin.save"])
    m["bulletin.Board.validate.calls"] = calls["bulletin.Board.validate"]
    m["bulletin.Board.validate.self_ms.p50"] = median(self_ms["bulletin.Board.validate"])
    m["bulletin.validate.per_command"] = _ratio(
        sum(s[0] == "bulletin.Board.validate" for op in cli_window for s in op.spans),
        len(cli_window),
    )
    m["bulletin.from_document.self_ms.p50"] = median(self_ms["bulletin.from_document"])
    m["bulletin.to_document.self_ms.p50"] = median(self_ms["bulletin.to_document"])
    m["bulletin.board_bytes"] = facts.get("board_bytes", 0)

    cli_loop = [op for op in loop if op.tags.get("cli")]
    m["cli.startup_ms.p50"] = median([_startup_ns(op) / 1e6 for op in cli_loop])
    m["cli.main.self_ms.p50"] = median([layers["cli"] for layers in layer_self]) if cli_loop else 0.0
    m["cli.dealer_file_bytes"] = facts.get("dealer_bytes", 0)

    m["simulate.run_simulation.self_ms"] = median(self_ms["simulate.run_simulation"])
    m["simulate.attack_entry.calls"] = calls["simulate.attack_entry"]
    sim_loop = [op for op in loop if not op.tags.get("cli")]
    m["simulate.attack_entry.ms"] = median(
        [sum((s[3] - s[2]) / 1e6 for s in op.spans if s[0] == "simulate.attack_entry") for op in sim_loop]
    )

    m["codec.tag.calls"] = calls["codec.tag"]
    m["codec.xor_combine.calls"] = calls["codec.xor_combine"]
    m["linepoly.interpolate_line.calls"] = calls["linepoly.interpolate_line"]
    m["small_layers.ms"] = median([sum(layers[n] for n in SMALL_LAYERS) for layers in layer_self])
    for name in PER_OP_LAYERS:
        m[f"layer.{name}.self_ms"] = median([layers[name] for layers in layer_self])

    traced_ms = [(op.exit_ns - op.spawn_ns) / 1e6 for op in loop]
    m["trace.overhead_ms"] = median(traced_ms) - median(untraced_loop_ms)
    m["trace.accounted_ratio"] = median(
        [
            (_startup_ns(op) / 1e6 + sum(layers.values())) / ((op.exit_ns - op.spawn_ns) / 1e6)
            for op, layers in zip(loop, layer_self)
        ]
    )
    return m


def breakdown(ops) -> list[str]:
    """Human-readable lines: per op kind, the median wall time and the
    median self time of each layer, largest first."""
    by_kind = defaultdict(list)
    for op in ops:
        if op.tags.get("loop"):
            by_kind[op.kind].append(op)
    lines = []
    for kind, group in sorted(by_kind.items()):
        per_op = []
        for op in group:
            per_layer = layer_self_ms(op)
            per_layer["startup"] = _startup_ns(op) / 1e6
            per_op.append(per_layer)
        parts = {name: [d[name] for d in per_op] for name in set().union(*per_op)}
        wall = median([(op.exit_ns - op.spawn_ns) / 1e6 for op in group])
        ranked = sorted(((median(v), k) for k, v in parts.items()), reverse=True)
        shares = ", ".join(f"{k} {v:.1f} ms ({v / wall:.0%})" for v, k in ranked if v >= 0.05)
        lines.append(f"layers {kind} (n={len(group)}, wall p50 {wall:.1f} ms): {shares}")
    return lines
