#!/usr/bin/env bash
# Paired A/B perfbench runs of a base revision against HEAD.
#
#   scripts/abpair.sh <base-rev> [--workload w] [--pairs N] [--seconds S]
#                     [--seed K] [--workdir DIR] [--out FILE]
#
# Exports both revisions (git archive) under the work directory, builds
# each with perfbench/run.sh into its own CARGO_TARGET_DIR, and runs them
# as alternating units: pair i runs base then HEAD when i is even and HEAD
# then base when it is odd, so drift in the host's load lands on both
# sides alike. Each unit is one perfbench invocation of --seconds (default
# 1, which is one unit of a grid workload).
#
# The result, written to --out (default BENCH_pair.json), holds for every
# end-to-end metric both sides' samples, their medians, the base's
# interquartile range, the ratio of the medians (HEAD over base) with a
# bootstrap 95% confidence interval, HEAD's win count over the pairs (in
# the metric's better direction, from BENCHMARK.json), and whether the
# change is a gain beyond the base's spread: at least five pairs, the
# median better by more than the base's IQR. It also records both
# revisions and the host: nproc and the CPU model. `abpair.sh HEAD` is the
# A/A control, which separates build and host noise from code.
#
# Both trees are built from committed files only: commit the change first.
# Everything the script writes besides --out goes under --workdir (default
# a fresh directory under ${TMPDIR:-/tmp}), which it leaves in place.
set -euo pipefail

usage() {
	sed -n '2,5p' "$0" | sed 's/^# \{0,1\}//' >&2
	exit 2
}

[ $# -ge 1 ] || usage
base_rev=$1
shift
workload=phase-grid
pairs=5
seconds=1
seed=1
workdir=
out=BENCH_pair.json
while [ $# -gt 0 ]; do
	case $1 in
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--seed) seed=$2 ;;
	--workdir) workdir=$2 ;;
	--out) out=$2 ;;
	*) usage ;;
	esac
	shift 2
done

root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
head=$(git -C "$root" rev-parse HEAD)
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
	echo "abpair: the checkout has uncommitted changes; HEAD ($head) is measured without them" >&2
fi
workdir=${workdir:-$(mktemp -d "${TMPDIR:-/tmp}/abpair.XXXXXX")}
mkdir -p "$workdir"
workdir=$(cd "$workdir" && pwd)

# One exported tree and one build directory per side.
for side in base head; do
	rev=$base
	[ $side = head ] && rev=$head
	rm -rf "${workdir:?}/$side"
	mkdir -p "$workdir/$side"
	git -C "$root" archive "$rev" | tar -x -C "$workdir/$side"
done

# unit SIDE PAIR runs one perfbench unit of SIDE and appends its JSON line.
unit() {
	local side=$1 pair=$2 line
	line=$(cd "$workdir/$side" &&
		CARGO_TARGET_DIR=$workdir/build-$side bash perfbench/run.sh \
			--workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
	printf '{"side":"%s","pair":%d,"result":%s}\n' "$side" "$pair" "$line" >>"$workdir/units.jsonl"
	echo "abpair: pair $pair $side $line" >&2
}

: >"$workdir/units.jsonl"
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		unit base "$i"
		unit head "$i"
	else
		unit head "$i"
		unit base "$i"
	fi
done

python3 - "$workdir/units.jsonl" "$root/BENCHMARK.json" "$out" "$workload" "$base" "$head" "$seconds" "$seed" "$(nproc)" <<'PY'
import json, random, sys

units, bench, out, workload, base, head, seconds, seed, nproc = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(bench))["end_to_end"]}
rows = [json.loads(l) for l in open(units)]

def median(xs):
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2

def quartiles(xs):
    s = sorted(xs)
    lo, hi = s[: len(s) // 2], s[(len(s) + 1) // 2 :]
    return (median(lo), median(hi)) if lo else (s[0], s[0])

def model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"

rng = random.Random(1)
metrics = {}
for name, direction in better.items():
    side = {"base": {}, "head": {}}
    for r in rows:
        m = r["result"].get("metrics", {}).get(name)
        if m is not None:
            side[r["side"]][r["pair"]] = m["value"]
    paired = sorted(set(side["base"]) & set(side["head"]))
    if not paired:
        continue
    b = [side["base"][p] for p in paired]
    h = [side["head"][p] for p in paired]
    mb, mh = median(b), median(h)
    q1, q3 = quartiles(b)
    ratios = []
    for _ in range(2000):
        bb = [rng.choice(b) for _ in b]
        hh = [rng.choice(h) for _ in h]
        if median(bb) != 0:
            ratios.append(median(hh) / median(bb))
    ratios.sort()
    ci = [ratios[int(0.025 * len(ratios))], ratios[int(0.975 * len(ratios)) - 1]] if ratios else None
    lower = direction == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
    gain = len(paired) >= 5 and ((mb - mh) if lower else (mh - mb)) > (q3 - q1)
    metrics[name] = {
        "better": direction,
        "base": b,
        "head": h,
        "base_median": mb,
        "head_median": mh,
        "base_iqr": q3 - q1,
        "ratio": mh / mb if mb else None,
        "ratio_ci95": ci,
        "wins": wins,
        "pairs": len(paired),
        "gain_beyond_base_iqr": gain,
    }

doc = {
    "workload": workload,
    "seconds": int(seconds),
    "seed": int(seed),
    "base": base,
    "head": head,
    "correct": {s: all(r["result"].get("correct", False) for r in rows if r["side"] == s) for s in ("base", "head")},
    "host": {"nproc": int(nproc), "cpu_model": model()},
    "metrics": metrics,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
for name, m in metrics.items():
    print(f"{name}: base {m['base_median']:.4g}, head {m['head_median']:.4g}, ratio {m['ratio']}, "
          f"CI {m['ratio_ci95']}, wins {m['wins']}/{m['pairs']}, gain beyond IQR {m['gain_beyond_base_iqr']}")
PY
