#!/usr/bin/env sh
# Full verification gate for the repository.
#
# The static gates run first: detlint enforces the determinism contract
# in two stages — the lexical token rules, then the structural contract
# checks over the recovered call graph (docs/STATIC_ANALYSIS.md) — a
# grep audit keeps every declared dependency edge in use, and
# clippy holds the workspace lint policy
# ([workspace.lints] in Cargo.toml) to zero warnings — all are cheaper
# than the test suite and fail fast. The tier-1 gate (ROADMAP.md) is the
# build + test pair; the doc gates additionally hold rustdoc to zero
# warnings and run every doc-example, so the examples in the
# observability contract (docs/OBSERVABILITY.md, crates/obs rustdoc) can
# never rot silently.
#
# The script leaves the tree as it found it. Any cargo run on ledger/
# rewrites ledger/Cargo.lock (the committed copy still lists two vendored
# packages PR 19 deleted, and cargo drops the orphans; ledger/ is the
# benchmark's own path, so only a `benchmark` PR may re-commit it): a trap
# puts the file back, and the last stage fails if the run changed any
# other tracked file.
#
# Usage: sh scripts/verify.sh
set -eu
cd "$(dirname "$0")/.."

mkdir -p target
cp ledger/Cargo.lock target/verify-ledger-Cargo.lock
trap 'cp target/verify-ledger-Cargo.lock ledger/Cargo.lock' EXIT
tracked_changes() { git status --porcelain --untracked-files=no 2>/dev/null || true; }
TREE_BEFORE=$(tracked_changes)

echo "== tier-1: release build =="
cargo build --release

echo "== perf: the payoff-cache probe stays inlined =="
# The all-hit probe loop (dist_everygen: millions of ≈ 6 ns probes a run)
# is sensitive to inlining, not to work: when `fitness::Session::probe`
# stopped inlining, the workload read +40 % wall time with no other
# change. It is `#[inline(always)]` for that reason; an out-of-line copy
# shows up as a symbol of its own (`probe_or_play` is another function).
# The symbols are read first, so that `set -e` stops here if nm fails.
syms=$(nm -C target/release/evogame-cli)
if printf '%s\n' "$syms" | grep -E 'evo_core::fitness::Session::probe([^_[:alnum:]]|$)'; then
    echo "verify: FAIL — fitness::Session::probe is no longer inlined into its callers" >&2
    exit 1
fi

echo "== perf: the ChaCha8 wide refill stays vectorised =="
# Stochastic games (mixed strategies, execution noise) spend most of
# their time in the ChaCha8 keystream. After a stream's first block,
# rand_chacha's `refill_wide` computes four blocks in one pass that the
# loop vectoriser runs as SIMD across the blocks; on the scalar fallback
# every word stays the same and only the time moves, so no test would
# notice. The function is `#[inline(never)]` to keep a symbol: its
# disassembly must hold packed 32-bit adds (`paddd`, ≈ 130 when
# vectorised). A failed nm leaves no symbol, which fails the first
# check; the disassembly is read into a variable, so that `set -e` stops
# here if objdump fails.
case "$(uname -m)" in
x86_64)
    wide=$(nm target/release/evogame-cli | awk '/rand_chacha10ChaCha8Rng11refill_wide/ { print $3 }')
    if [ "$(printf '%s\n' "$wide" | grep -c .)" -ne 1 ]; then
        echo "verify: FAIL — no single rand_chacha::ChaCha8Rng::refill_wide symbol in evogame-cli" >&2
        exit 1
    fi
    asm=$(objdump -d --no-show-raw-insn --disassemble="$wide" target/release/evogame-cli)
    packed=$(printf '%s\n' "$asm" | grep -cw paddd || true)
    echo "refill_wide: $packed packed 32-bit adds"
    if [ "$packed" -eq 0 ]; then
        echo "verify: FAIL — rand_chacha::ChaCha8Rng::refill_wide is no longer vectorised" >&2
        exit 1
    fi
    ;;
*)
    echo "skipped: the refill's vector check reads x86_64 disassembly, this is $(uname -m)"
    ;;
esac

echo "== static: detlint lexical determinism contract =="
cargo run -p detlint --release -- check --rules lexical

echo "== static: detlint structural contracts (phase purity, RNG domains, comm, panics) =="
# The structural pass parses the token stream into fn scopes and an
# approximate call graph, then checks the five contract rules
# (docs/STATIC_ANALYSIS.md). The SARIF report is written unconditionally
# so CI can upload it as an artifact even on a clean run.
cargo run -p detlint --release -- check --rules structural
cargo run -p detlint --release -- check --format sarif > target/detlint.sarif || true
echo "sarif report: target/detlint.sarif"

echo "== static: detlint allow audit (every allow carries a reason) =="
# The annotation grammar (docs/STATIC_ANALYSIS.md) makes `reason = "..."`
# optional; this gate makes it mandatory so suppressions stay auditable.
# detlint's own sources are excluded: they hold the grammar's test
# fixtures, reason-less examples included.
if grep -rn "detlint: allow" --include="*.rs" crates src \
        | grep -v "^crates/detlint/" \
        | grep -v "reason *= *\""; then
    echo "verify: FAIL — 'detlint: allow' annotations above lack a reason" >&2
    exit 1
fi

echo "== static: dependency audit (every declared edge is used where its section allows) =="
# A first-party manifest may list a crate only if some .rs file of that
# package names it (`name::` or `use name`); an edge nobody names still
# costs a build and, for vendored crates, keeps dead code in the tree. A
# [dependencies] edge must be named by the package's own code (src/ or
# build.rs): one that only tests, benches or examples name belongs in
# [dev-dependencies], which any .rs file of the package may name
# (`#[cfg(test)]` modules live in src/).
DEAD=""
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    for edge in $(awk '/^\[/ { sec = ($0 == "[dependencies]" || $0 == "[dev-dependencies]") ? substr($0, 2, length($0) - 2) : ""; next }
                       sec != "" && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); gsub(/-/, "_"); print sec ":" $0 }' "$manifest"); do
        section=${edge%%:*}
        dep=${edge#*:}
        dirs="src build.rs"
        if [ "$section" = dev-dependencies ]; then
            dirs="src tests benches examples build.rs"
        fi
        srcs=""
        for d in $dirs; do
            [ -e "$dir/$d" ] && srcs="$srcs $dir/$d"
        done
        grep -rqE --include='*.rs' "(^|[^A-Za-z0-9_])($dep::|use $dep([^A-Za-z0-9_]|\$))" $srcs \
            || DEAD="$DEAD  $manifest: [$section] $dep
"
    done
done
if [ -n "$DEAD" ]; then
    echo "verify: FAIL — dependency edges no .rs file their section allows names:" >&2
    printf '%s' "$DEAD" >&2
    exit 1
fi

echo "== static: payoff-cache access audit (one reader/writer) =="
# docs/PERFORMANCE.md §2: only fitness.rs (through its probe session) reads
# or writes the PayoffCache, and only it and paycache.rs report probes to
# obs. A second accessor could hold a session's read lock across its own
# write, or count a probe twice.
if grep -rnE --include='*.rs' \
        '\.reader\(\)|Counter::PayoffCache|PayoffCache::(get|insert)|\.(get|insert)\([^)]*PayoffKind::' \
        crates/*/src \
        | grep -vE '^crates/evo-core/src/(paycache|fitness)\.rs:|^crates/obs/'; then
    echo "verify: FAIL — payoff-cache access outside crates/evo-core/src/{paycache,fitness}.rs" >&2
    exit 1
fi

echo "== static: clippy, warnings are errors =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: tests (root integration suites + every crate's unit tests) =="
# --workspace: the root package alone never runs the crates' own unit
# tests — cluster's per-family dist oracles and svc's lifecycle tests among
# them.
cargo test -q --workspace

echo "== determinism: thread-count matrix (1/2/8 rayon workers) =="
# tests/determinism.rs already replays each run at RAYON_NUM_THREADS
# 1/2/8 *inside* one process; this stage additionally pins the variable
# for the whole process, so the global rayon bring-up path is exercised
# at every width too (engine-core contract, docs/ENGINE_CORE.md).
for t in 1 2 8; do
    echo "-- RAYON_NUM_THREADS=$t --"
    RAYON_NUM_THREADS=$t cargo test -q --test determinism
done

echo "== fault tolerance: kill matrix + bit-identical resume =="
# For a grid of (killed rank, kill generation): the run must end with the
# typed degraded exit code (3), leave a restartable checkpoint, and
# resuming must reproduce the uninterrupted run's state digest exactly
# (docs/FAULT_TOLERANCE.md). The digest lines land on stderr.
FT_DIR="target/verify-faults"
mkdir -p "$FT_DIR"
CLI=target/release/evogame-cli
FT_ARGS="--ssets 12 --generations 60 --seed 7 --pc-rate 0.25 --ranks 4"
$CLI distributed $FT_ARGS 2> "$FT_DIR/clean.err"
CLEAN_DIGEST=$(grep "state digest" "$FT_DIR/clean.err")
[ -n "$CLEAN_DIGEST" ] || { echo "verify: FAIL — no state digest" >&2; exit 1; }
for rank in 1 2 3; do
    for gen in 0 30 59; do
        cp="$FT_DIR/kill-$rank-$gen.json"
        rc=0
        $CLI distributed $FT_ARGS \
            --kill-rank "$rank" --kill-at "$gen" --recv-timeout-ms 2000 \
            --checkpoint-out "$cp" 2> "$FT_DIR/kill-$rank-$gen.err" || rc=$?
        if [ "$rc" -ne 3 ]; then
            echo "verify: FAIL — kill rank $rank at gen $gen: exit $rc, want 3 (degraded)" >&2
            exit 1
        fi
        [ -s "$cp" ] || { echo "verify: FAIL — kill $rank@$gen left no checkpoint" >&2; exit 1; }
        $CLI distributed --ranks 4 --resume "$cp" 2> "$FT_DIR/resume-$rank-$gen.err"
        RESUMED_DIGEST=$(grep "state digest" "$FT_DIR/resume-$rank-$gen.err")
        if [ "$RESUMED_DIGEST" != "$CLEAN_DIGEST" ]; then
            echo "verify: FAIL — kill $rank@$gen: resumed digest differs from clean run" >&2
            echo "  clean:   $CLEAN_DIGEST" >&2
            echo "  resumed: $RESUMED_DIGEST" >&2
            exit 1
        fi
    done
done
# The same kill under --every-generation: its ranks answer most
# generations from their table memo, and a resumed rank starts without
# one, so the resume must still reach the clean every-generation digest.
$CLI distributed $FT_ARGS --every-generation 2> "$FT_DIR/clean-eg.err"
CLEAN_EG_DIGEST=$(grep "state digest" "$FT_DIR/clean-eg.err")
[ -n "$CLEAN_EG_DIGEST" ] || { echo "verify: FAIL — no every-generation state digest" >&2; exit 1; }
rc=0
$CLI distributed $FT_ARGS --every-generation \
    --kill-rank 2 --kill-at 30 --recv-timeout-ms 2000 \
    --checkpoint-out "$FT_DIR/kill-eg.json" 2> "$FT_DIR/kill-eg.err" || rc=$?
[ "$rc" -eq 3 ] || { echo "verify: FAIL — every-generation kill: exit $rc, want 3 (degraded)" >&2; exit 1; }
[ -s "$FT_DIR/kill-eg.json" ] || { echo "verify: FAIL — every-generation kill left no checkpoint" >&2; exit 1; }
$CLI distributed --ranks 4 --every-generation --resume "$FT_DIR/kill-eg.json" 2> "$FT_DIR/resume-eg.err"
RESUMED_EG_DIGEST=$(grep "state digest" "$FT_DIR/resume-eg.err")
if [ "$RESUMED_EG_DIGEST" != "$CLEAN_EG_DIGEST" ]; then
    echo "verify: FAIL — every-generation kill: resumed digest differs from clean run" >&2
    printf 'clean:   %s\nresumed: %s\n' "$CLEAN_EG_DIGEST" "$RESUMED_EG_DIGEST" >&2
    exit 1
fi
echo "fault matrix: 10/10 degraded cleanly and resumed bit-identically (one every-generation)"

echo "== structured populations: spatial smoke — shared vs rank-sharded bit-identity =="
# The graph-scope contract (docs/GRAPH.md): a lattice run must produce the
# same state digest and byte-identical record stream on the shared backend
# and on the row-sharded distributed backend at any rank count, and a rank
# kill must degrade to exit 3 with a checkpoint that resumes onto the
# clean digest.
SP_DIR="target/verify-spatial"
mkdir -p "$SP_DIR"
SP_ARGS="--width 12 --height 12 --generations 40 --seed 11 --update fermi --beta 0.8"
$CLI spatial $SP_ARGS --records "$SP_DIR/shared.jsonl" 2> "$SP_DIR/shared.err"
SP_DIGEST=$(grep "state digest" "$SP_DIR/shared.err")
[ -n "$SP_DIGEST" ] || { echo "verify: FAIL — no spatial state digest" >&2; exit 1; }
for ranks in 2 4; do
    $CLI spatial $SP_ARGS --ranks "$ranks" --records "$SP_DIR/dist$ranks.jsonl" \
        2> "$SP_DIR/dist$ranks.err"
    D=$(grep "state digest" "$SP_DIR/dist$ranks.err")
    if [ "$D" != "$SP_DIGEST" ]; then
        echo "verify: FAIL — spatial digest diverged at $ranks ranks" >&2
        printf 'shared: %s\n%s ranks: %s\n' "$SP_DIGEST" "$ranks" "$D" >&2
        exit 1
    fi
    cmp -s "$SP_DIR/shared.jsonl" "$SP_DIR/dist$ranks.jsonl" \
        || { echo "verify: FAIL — spatial record stream diverged at $ranks ranks" >&2; exit 1; }
done
rc=0
$CLI spatial $SP_ARGS --ranks 3 --kill-rank 1 --kill-at 20 --recv-timeout-ms 2000 \
    --checkpoint-out "$SP_DIR/kill.json" 2> "$SP_DIR/kill.err" || rc=$?
[ "$rc" -eq 3 ] || { echo "verify: FAIL — spatial kill: exit $rc, want 3 (degraded)" >&2; exit 1; }
[ -s "$SP_DIR/kill.json" ] || { echo "verify: FAIL — spatial kill left no checkpoint" >&2; exit 1; }
$CLI spatial --ranks 3 --resume "$SP_DIR/kill.json" 2> "$SP_DIR/resume.err"
SP_RESUMED=$(grep "state digest" "$SP_DIR/resume.err")
if [ "$SP_RESUMED" != "$SP_DIGEST" ]; then
    echo "verify: FAIL — spatial resume digest differs from clean run" >&2
    printf 'clean:   %s\nresumed: %s\n' "$SP_DIGEST" "$SP_RESUMED" >&2
    exit 1
fi
echo "spatial smoke: shared == 2/4 ranks byte-for-byte, kill degraded and resumed bit-identically"

echo "== fixation: fixate smoke — shared vs replicate-sharded bit-identity =="
# The fixation workload contract (docs/FIXATION.md): a replicate batch
# must report the same batch digest and byte-identical record stream on
# the shared backend and on the replicate-sharded distributed backend at
# any rank count, and a rank kill must degrade to exit 3 with an
# always-present checkpoint that resumes onto the clean digest.
FX_DIR="target/verify-fixation"
mkdir -p "$FX_DIR"
FX_ARGS="--replicates 16 --ssets 8 --generations 150 --seed 7 --rounds 10 --rule moran"
$CLI fixate $FX_ARGS --records "$FX_DIR/shared.jsonl" 2> "$FX_DIR/shared.err"
FX_DIGEST=$(grep "state digest" "$FX_DIR/shared.err")
[ -n "$FX_DIGEST" ] || { echo "verify: FAIL — no fixation state digest" >&2; exit 1; }
for ranks in 2 4; do
    $CLI fixate $FX_ARGS --ranks "$ranks" --records "$FX_DIR/dist$ranks.jsonl" \
        2> "$FX_DIR/dist$ranks.err"
    D=$(grep "state digest" "$FX_DIR/dist$ranks.err")
    if [ "$D" != "$FX_DIGEST" ]; then
        echo "verify: FAIL — fixation digest diverged at $ranks ranks" >&2
        printf 'shared: %s\n%s ranks: %s\n' "$FX_DIGEST" "$ranks" "$D" >&2
        exit 1
    fi
    cmp -s "$FX_DIR/shared.jsonl" "$FX_DIR/dist$ranks.jsonl" \
        || { echo "verify: FAIL — fixation record stream diverged at $ranks ranks" >&2; exit 1; }
done
rc=0
$CLI fixate $FX_ARGS --ranks 3 --kill-rank 1 --kill-at 6 --recv-timeout-ms 2000 \
    --checkpoint-out "$FX_DIR/kill.json" 2> "$FX_DIR/kill.err" || rc=$?
[ "$rc" -eq 3 ] || { echo "verify: FAIL — fixation kill: exit $rc, want 3 (degraded)" >&2; exit 1; }
[ -s "$FX_DIR/kill.json" ] || { echo "verify: FAIL — fixation kill left no checkpoint" >&2; exit 1; }
$CLI fixate --ranks 3 --resume "$FX_DIR/kill.json" 2> "$FX_DIR/resume.err"
FX_RESUMED=$(grep "state digest" "$FX_DIR/resume.err")
if [ "$FX_RESUMED" != "$FX_DIGEST" ]; then
    echo "verify: FAIL — fixation resume digest differs from clean run" >&2
    printf 'clean:   %s\nresumed: %s\n' "$FX_DIGEST" "$FX_RESUMED" >&2
    exit 1
fi
echo "fixation smoke: shared == 2/4 ranks byte-for-byte, kill degraded and resumed bit-identically"

echo "== service: serve smoke — deterministic receipts + degraded auto-retry =="
# A three-job batch through the in-process job server (docs/SERVICE.md):
# the same run as the fault matrix above on the shared backend, on the
# distributed backend, and on the distributed backend with an injected
# rank kill plus a retry budget. All three must complete with the *same*
# state digest (the faulty job by auto-resuming from its degraded
# checkpoint), the retry counter must show exactly one re-enqueue, and
# resubmitting the identical request file into a fresh spool must
# reproduce every receipt digest bit for bit.
SV_DIR="target/verify-serve"
rm -rf "$SV_DIR"
mkdir -p "$SV_DIR"
SV_PARAMS='{"mem_steps":1,"num_ssets":12,"agents_per_sset":0,"game":{"rounds":200,"noise":0.0,"payoff":{"reward":3.0,"sucker":0.0,"temptation":4.0,"punishment":1.0}},"pc_rate":0.25,"mutation_rate":0.05,"beta":1.0,"kind":"Pure","teacher_must_be_fitter":true,"rule":"PairwiseComparison","mutation_kind":"Fresh","generations":60,"seed":7}'
SP_SPEC='{"params":{"width":12,"height":12,"mem_steps":0,"game":{"rounds":1,"noise":0.0,"payoff":{"reward":1.0,"sucker":0.0,"temptation":1.85,"punishment":0.0}},"neighborhood":"Moore8","update":"BestNeighbor","include_self":true,"generations":40,"seed":11},"init":"SingleDefector"}'
{
    echo "{\"id\":\"clean-shared\",\"params\":$SV_PARAMS}"
    echo "{\"id\":\"clean-dist\",\"params\":$SV_PARAMS,\"backend\":{\"Distributed\":{\"ranks\":4}}}"
    echo "{\"id\":\"faulty-dist\",\"params\":$SV_PARAMS,\"backend\":{\"Distributed\":{\"ranks\":4}},\"retry_budget\":2,\"faults\":{\"kills\":[{\"rank\":2,\"generation\":30}],\"recv_timeout_ms\":200}}"
    echo "{\"id\":\"spatial-shared\",\"spatial\":$SP_SPEC}"
    echo "{\"id\":\"spatial-dist\",\"spatial\":$SP_SPEC,\"backend\":{\"Distributed\":{\"ranks\":3}}}"
} > "$SV_DIR/jobs.jsonl"
for n in 1 2; do
    $CLI serve --spool "$SV_DIR/spool$n" --requests "$SV_DIR/jobs.jsonl" \
        > "$SV_DIR/out$n" 2> "$SV_DIR/err$n"
done
for id in clean-shared clean-dist faulty-dist spatial-shared spatial-dist; do
    [ -s "$SV_DIR/spool1/$id/receipt.json" ] \
        || { echo "verify: FAIL — serve left no receipt for $id" >&2; exit 1; }
done
if ! cmp -s "$SV_DIR/out1" "$SV_DIR/out2"; then
    echo "verify: FAIL — identical serve submissions produced different results" >&2
    diff "$SV_DIR/out1" "$SV_DIR/out2" >&2 || true
    exit 1
fi
# The three well-mixed jobs run the same trajectory — one digest among
# them; the two spatial jobs run theirs — one digest among those too.
SV_D1=$(for id in clean-shared clean-dist faulty-dist; do
    grep -h '"state_digest"' "$SV_DIR/spool1/$id/receipt.json"; done | sort -u)
SV_D2=$(for id in clean-shared clean-dist faulty-dist; do
    grep -h '"state_digest"' "$SV_DIR/spool2/$id/receipt.json"; done | sort -u)
if [ "$SV_D1" != "$SV_D2" ] || [ "$(printf '%s\n' "$SV_D1" | wc -l)" -ne 1 ]; then
    echo "verify: FAIL — receipt digests differ across jobs or resubmissions" >&2
    printf 'spool1:\n%s\nspool2:\n%s\n' "$SV_D1" "$SV_D2" >&2
    exit 1
fi
SP_SV=$(for n in 1 2; do for id in spatial-shared spatial-dist; do
    grep -h '"state_digest"' "$SV_DIR/spool$n/$id/receipt.json"; done; done | sort -u)
if [ "$(printf '%s\n' "$SP_SV" | wc -l)" -ne 1 ]; then
    echo "verify: FAIL — spatial receipt digests differ across backends or resubmissions" >&2
    printf '%s\n' "$SP_SV" >&2
    exit 1
fi
grep -q "faulty-dist: completed" "$SV_DIR/out1" \
    || { echo "verify: FAIL — injected-fault job did not complete" >&2; exit 1; }
grep -q "retried 1" "$SV_DIR/err1" \
    || { echo "verify: FAIL — retry counter does not show the auto-resume" >&2; exit 1; }
echo "serve smoke: 5/5 receipts, one auto-retry, spatial backends agree, resubmission bit-identical"

echo "== benchmark surface: ledger builds, passes its unit tests and its smoke run =="
# ledger/ (BENCHMARK.json) is a package of its own with path deps into
# crates/: it pins the engine surface in ledger-trace/layers.rs and parses
# four CLI output lines, so drift against either fails here, not at
# benchmark time. Its own unit tests (the CLI output lines it parses, the
# `JobRequest` file it writes for `serve`, its statistics) run here: the
# workspace's `cargo test` does not reach them.
cargo build --release --offline --manifest-path ledger/Cargo.toml
cargo test -q --release --offline --manifest-path ledger/Cargo.toml
cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml --bin ledger -- run --smoke \
    > target/verify-ledger-smoke.txt \
    || { echo "verify: FAIL — ledger smoke run failed" >&2; tail -n 30 target/verify-ledger-smoke.txt >&2; exit 1; }
tail -n 1 target/verify-ledger-smoke.txt

echo "== docs: rustdoc, warnings are errors =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== docs: doc-examples =="
cargo test -q --doc --workspace

echo "== tree: the run changed no tracked file =="
cp target/verify-ledger-Cargo.lock ledger/Cargo.lock
TREE_AFTER=$(tracked_changes)
if [ "$TREE_AFTER" != "$TREE_BEFORE" ]; then
    echo "verify: FAIL — tracked files changed by this run (git status --porcelain):" >&2
    printf 'before:\n%s\nafter:\n%s\n' "$TREE_BEFORE" "$TREE_AFTER" >&2
    exit 1
fi

echo "verify: OK"
