#!/usr/bin/env sh
# Behavioural identity of two evogame-cli builds: run one command list
# through both binaries and diff everything they leave behind — stdout,
# stderr, exit codes, --records streams, checkpoints, spool trees and the
# counters of --manifest-out files.
#
# Usage: sh scripts/cli_identity.sh <parent-bin> <child-bin> [workdir]
#
# The list: the seven ledger workload shapes (ledger/src/spec.rs) scaled
# down, every update rule on both backends, mixed strategies with noise
# (short games, and full 200-round games at memory 6),
# the evaluator flags (--dedup, --expected-fitness, also on a resumed
# run, and long runs that reuse their table memo), every-generation distributed runs (pure, mixed and noisy, resumed)
# with their probe counters, population sizes that leave a partial lockstep group at
# memory 2 / 3 / 6, both cycle detectors (memory 3 and 4) and a
# deterministic fractional lattice game, which must skip the cycle payout,
# the strategy census (a pool far larger than the
# population, expected fitness on demand, dedup counters in a manifest),
# the lattice shared / row-sharded / fermi-vn4 / on 3-wide and 3-tall tori
# whose stencils and halo rows wrap, fixation
# shared / replicate-sharded / --matrix / noisy (the played-every-generation
# branch, with manifests) / ImitateBest, checkpoint -> resume per family
# across backends, kill -> resume per family, the generation frame's edge
# cases (one compute rank, a resumed run's periodic checkpoints at
# absolute multiples, a lattice kill at the first generation), a killed
# on-demand run and an on-demand Moran run's block pushes, and an
# 8-job `serve --workers 1` batch — all at RAYON_NUM_THREADS=2.
#
# Normalised before the diff, and nothing else:
#   - wall times ("in 0.12s", a manifest's elapsed / per-generation / span
#     fields);
#   - the `dead ranks [...]` census of a degraded run and which dead rank
#     its reason names first (kill-cascade race, ROADMAP 8(a));
#   - the message count of a killed well-mixed distributed run: in the
#     `kill-dist*` commands `messages N` is masked (a push that reaches a
#     rank before or after it dies counts or not), and the counters of
#     `kill-dist.json`'s manifest and of the `wm-faulty` job's receipt are
#     left out. The boundary generation itself is a function of the plan
#     (docs/FAULT_TOLERANCE.md §3) and is compared: the degraded and
#     checkpoint lines, `kill-dist.json`, `kill-dist-od.json`, the shared
#     resume's sampled CSV and the `wm-faulty` job's spool checkpoint;
#   - process-global counters that race on every commit (ROADMAP 8(a)):
#     in shared-memory `fixate`'s manifest the four counters two rayon
#     workers missing the same cold cache entry both bump
#     (payoff_cache_{hits,misses}, games_played, rounds_simulated), and
#     `jobs_accepted` in `serve` receipts.
# Killed `fixate --ranks` runs write no manifest (every counter of such a
# run races).
#
# Exit status 0 and "identical" on no difference, 1 and the diff otherwise.
# Both binaries must accept every command: a flag one of them rejects
# shows up as a differing exit code, not as a crash of this script.
set -eu

[ $# -ge 2 ] || { echo "usage: $0 <parent-bin> <child-bin> [workdir]" >&2; exit 2; }
PARENT=$(realpath "$1")
CHILD=$(realpath "$2")
WORK=${3:-$(mktemp -d)}
export RAYON_NUM_THREADS=2

WM="--ssets 12 --generations 60 --seed 7 --pc-rate 0.25"
SP="--width 12 --height 12 --generations 40 --seed 11"
FX="--replicates 16 --ssets 8 --generations 150 --seed 7 --rounds 10"
KILL="--kill-rank 1 --recv-timeout-ms 2000"

# The `serve` batch: one request line per job.
PARAMS='{"mem_steps":1,"num_ssets":12,"agents_per_sset":0,"game":{"rounds":200,"noise":0.0,"payoff":{"reward":3.0,"sucker":0.0,"temptation":4.0,"punishment":1.0}},"pc_rate":0.25,"mutation_rate":0.05,"beta":1.0,"kind":"Pure","teacher_must_be_fitter":true,"rule":"PairwiseComparison","mutation_kind":"Fresh","generations":60,"seed":7}'
MIXED=$(printf '%s' "$PARAMS" | sed 's/"noise":0.0/"noise":0.01/; s/"kind":"Pure"/"kind":"Mixed"/; s/"rounds":200/"rounds":20/')
FIXP=$(printf '%s' "$PARAMS" | sed 's/"num_ssets":12/"num_ssets":8/; s/"pc_rate":0.25/"pc_rate":1.0/; s/"mutation_rate":0.05/"mutation_rate":0.0/; s/"rule":"PairwiseComparison"/"rule":"Moran"/; s/"generations":60/"generations":150/; s/"rounds":200/"rounds":10/')
LATTICE='{"params":{"width":12,"height":12,"mem_steps":0,"game":{"rounds":1,"noise":0.0,"payoff":{"reward":1.0,"sucker":0.0,"temptation":1.85,"punishment":0.0}},"neighborhood":"Moore8","update":"BestNeighbor","include_self":true,"generations":40,"seed":11},"init":"SingleDefector"}'
SPACE='{"mem_steps":1,"num_states":4,"mask":3}'
FIXATION="{\"params\":$FIXP,\"resident\":{\"Pure\":{\"space\":$SPACE,\"words\":[0]}},\"mutant\":{\"Pure\":{\"space\":$SPACE,\"words\":[15]}},\"replicates\":12}"
DIST='"backend":{"Distributed":{"ranks":3}}'
jobs() {
    echo "{\"id\":\"wm-shared\",\"params\":$PARAMS}"
    echo "{\"id\":\"wm-dist\",\"params\":$PARAMS,$DIST}"
    echo "{\"id\":\"wm-faulty\",\"params\":$PARAMS,$DIST,\"retry_budget\":2,\"faults\":{\"kills\":[{\"rank\":2,\"generation\":30}],\"recv_timeout_ms\":2000}}"
    echo "{\"id\":\"wm-mixed\",\"params\":$MIXED,\"checkpoint_every\":25}"
    echo "{\"id\":\"sp-shared\",\"spatial\":$LATTICE}"
    echo "{\"id\":\"sp-faulty\",\"spatial\":$LATTICE,$DIST,\"retry_budget\":1,\"faults\":{\"kills\":[{\"rank\":1,\"generation\":20}],\"recv_timeout_ms\":2000}}"
    echo "{\"id\":\"fx-shared\",\"fixation\":$FIXATION}"
    echo "{\"id\":\"fx-dist\",\"fixation\":$FIXATION,$DIST}"
}

# run_list <bin>: every command, in a fresh directory, files by relative
# path so that both sides print the same names.
run_list() {
    bin=$1
    c() { # c <id> <args...>: stdout, stderr and exit code of one command
        id=$1; shift
        rc=0
        "$bin" "$@" > "$id.out" 2> "$id.err" || rc=$?
        echo "$rc" > "$id.rc"
    }
    # The seven ledger shapes, small.
    c wm_naive run --ssets 64 --mem 1 --generations 5 --seed 11 --records wm_naive.jsonl
    c wm_cached run --ssets 512 --mem 1 --generations 200 --seed 12 --records wm_cached.jsonl --dedup
    c dist_everygen distributed --ranks 3 --ssets 128 --generations 15 --seed 13 --every-generation
    c dist_ondemand distributed --ranks 3 --ssets 256 --generations 1500 --seed 14
    c spatial spatial --width 128 --height 128 --generations 4 --init random:0.5 --seed 15 --records spatial.jsonl
    c fixate fixate --replicates 280 --seed 16 --records fixate.jsonl
    # Every rule, both backends, both policies; manifests on one rule.
    for rule in pc moran best; do
        c "run-$rule" run $WM --rule $rule --records "run-$rule.jsonl"
        c "run-$rule-od" run $WM --rule $rule --on-demand
        c "dist-$rule" distributed --ranks 3 $WM --rule $rule
        c "dist-$rule-eg" distributed --ranks 4 $WM --rule $rule --every-generation
    done
    c run-manifest run $WM --manifest-out run.manifest.json
    c dist-manifest distributed --ranks 3 $WM --manifest-out dist.manifest.json
    # On demand, every compute rank's block pushed to every other rank.
    c dist-moran-od-manifest distributed --ranks 4 $WM --rule moran --manifest-out dist-moran-od.manifest.json
    # Mixed strategies with noise; the cost knobs and views.
    c run-mixed run --ssets 10 --generations 30 --seed 3 --mixed --noise 0.05 --rounds 20 --records run-mixed.jsonl
    # Full-length noisy mixed games against 4096-entry tables: each game's
    # stream runs through many four-block keystream refills.
    c run-mixed-long run --mem 6 --mixed --noise 0.01 --rounds 200 --ssets 6 --generations 10 --records run-mixed-long.jsonl
    c dist-mixed distributed --ranks 3 --ssets 10 --generations 30 --seed 3 --mixed --noise 0.05 --rounds 20
    c run-expected run $WM --expected-fitness --sample-every 7 --heatmap
    c run-mem2 run --ssets 8 --generations 20 --seed 5 --mem 2 --mu 0.2 --beta 2 --dedup
    c dist-one distributed --ranks 2 $WM
    # The lockstep groups' awkward shapes: a partial last group of one-word
    # strategies (every game of every row played: the naive evaluator is
    # uncached), 64-word strategies, and ranks whose 13-opponent rows miss
    # a cold cache.
    c run-tail run --ssets 13 --mem 3 --generations 20 --seed 5
    # The cycle payout's two move lookups (a one-word table up to memory
    # three, a loaded word from memory four) and its longest walks.
    c run-mem3 run --ssets 9 --mem 3 --generations 6 --seed 6 --rounds 300
    c run-mem4 run --ssets 9 --mem 4 --generations 6 --seed 6 --rounds 300
    c run-mem6 run --ssets 9 --mem 6 --generations 6 --seed 6 --rounds 50
    c dist-tail distributed --ranks 3 --ssets 13 --mem 2 --generations 20 --seed 5 --every-generation
    # Every-generation distributed runs whose compute ranks answer an
    # unchanged table from their owned fitness block (pure, noiseless),
    # or must not (mixed and noisy), with the probes in a manifest.
    c dist-eg-manifest distributed --ranks 3 $WM --every-generation --manifest-out dist-eg.manifest.json
    c dist-mixed-eg distributed --ranks 3 --ssets 10 --generations 30 --seed 3 --mixed --noise 0.05 --rounds 20 --every-generation --manifest-out dist-mixed-eg.manifest.json
    # The census: a pool far larger than the population (mutation at every
    # other generation), the Pair scope's one census for two expected rows,
    # and the dedup path's hits, misses and games in a manifest.
    c run-deadpool run --ssets 16 --mem 3 --generations 2000 --mu 0.5 --seed 8 --dedup --records run-deadpool.jsonl
    c run-expected-od run $WM --expected-fitness --on-demand --records run-expected-od.jsonl
    c wm_cached-manifest run --ssets 512 --mem 1 --generations 200 --seed 12 --dedup --manifest-out wm_cached.manifest.json
    # The table memo: long every-generation runs that answer an unchanged
    # table from it, sampled (dedup, Moran) and expected (mixed), with
    # their probes in a manifest.
    c run-memo-moran run --ssets 64 --mem 2 --generations 3000 --seed 17 --dedup --rule moran --records run-memo-moran.jsonl --manifest-out run-memo-moran.manifest.json
    c run-memo-expected run --ssets 24 --generations 1500 --seed 18 --mixed --expected-fitness --records run-memo-expected.jsonl --manifest-out run-memo-expected.manifest.json
    # The lattice.
    c sp-shared spatial $SP --records sp-shared.jsonl --render --manifest-out sp-shared.manifest.json
    c sp-ranks spatial $SP --ranks 3 --records sp-ranks.jsonl --manifest-out sp-ranks.manifest.json
    c sp-fermi spatial $SP --update fermi --beta 0.8 --neighborhood vn4 --no-self --init random:0.3 --sample-every 4
    c sp-fermi-ranks spatial $SP --update fermi --beta 0.8 --neighborhood vn4 --no-self --init random:0.3 --ranks 4 --records sp-fermi-ranks.jsonl
    c sp-iterated spatial --width 8 --height 8 --generations 10 --mem 1 --rounds 5 --noise 0.02 --temptation 1.6
    # Deterministic and fractional: the every-round path, not the cycle payout.
    c sp-iterated-det spatial --width 8 --height 8 --generations 10 --mem 1 --rounds 5 --temptation 1.6
    # Wrap-heavy tori: at width or height 3 every cell's stencil wraps on
    # that axis, and over ranks each compute rank's outer halo row wraps.
    c sp-wrap-vn4 spatial --width 3 --height 7 --generations 12 --seed 17 --neighborhood vn4 --no-self --init single --records sp-wrap-vn4.jsonl
    c sp-wrap-moore spatial --width 7 --height 3 --generations 12 --seed 17 --init random:0.4 --update fermi --beta 0.8 --records sp-wrap-moore.jsonl
    c sp-wrap-ranks spatial --width 3 --height 9 --ranks 3 --generations 12 --seed 17 --init random:0.4 --records sp-wrap-ranks.jsonl
    # Fixation.
    c fx-shared fixate $FX --records fx-shared.jsonl --manifest-out fx-shared.manifest.json
    c fx-ranks fixate $FX --ranks 3 --records fx-ranks.jsonl --manifest-out fx-ranks.manifest.json
    c fx-pc fixate --replicates 12 --ssets 6 --seed 9 --rule pc --pc-rate 0.5 --resident TFT --mutant WSLS --generations 400
    c fx-matrix fixate --matrix --replicates 3 --ssets 6 --generations 100 --seed 2 --rounds 10
    # Noise makes every game stochastic: each generation plays the full
    # schedule, the cache untouched, so even the shared manifest is exact.
    c fx-noisy fixate $FX --noise 0.02 --records fx-noisy.jsonl --manifest-out fx-noisy.manifest.json
    c fx-noisy-ranks fixate $FX --noise 0.02 --ranks 3 --records fx-noisy-ranks.jsonl --manifest-out fx-noisy-ranks.manifest.json
    # No manifest: its cold-cache counters race as fx-shared's do.
    c fx-best fixate $FX --rule best --records fx-best.jsonl
    # Checkpoint -> resume, per family, across backends (the distributed
    # runs leave their latest periodic snapshot: generation 50 / 30).
    c cp-run run $WM --checkpoint-out cp-run.json --checkpoint-every 25
    c cp-run-resume run --resume cp-run.json
    c cp-dist distributed --ranks 3 $WM --checkpoint-out cp-dist.json --checkpoint-every 25
    c cp-dist-resume-shared run --resume cp-dist.json --records cp-dist-resume.jsonl
    c cp-dist-resume distributed --ranks 4 --resume cp-dist.json --checkpoint-out cp-dist-2.json
    c cp-dist-resume-every distributed --resume cp-dist.json --checkpoint-every 20 --checkpoint-out cp-dist-3.json
    # Its ranks start with no fitness block and a prewarmed cache.
    c cp-dist-resume-eg distributed --ranks 3 --every-generation --resume cp-dist.json --manifest-out cp-dist-resume-eg.manifest.json
    # Expected fitness on a resumed run starts on a warm cache (cp-run.json
    # holds the run's last generation, so the snapshot at 50 of 60 it is).
    c cp-dist-resume-expected run --resume cp-dist.json --expected-fitness --manifest-out cp-dist-resume-expected.manifest.json
    c cp-sp spatial $SP --ranks 3 --checkpoint-out cp-sp.json --checkpoint-every 15
    c cp-sp-resume-shared spatial --resume cp-sp.json --records cp-sp-resume.jsonl --checkpoint-out cp-sp-2.json
    c cp-sp-resume spatial --ranks 2 --resume cp-sp.json --records cp-sp-resume-ranks.jsonl
    c cp-sp-resume-every spatial --ranks 3 --resume cp-sp.json --checkpoint-every 10 --checkpoint-out cp-sp-3.json
    c cp-fx fixate $FX --checkpoint-out cp-fx.json --checkpoint-every 5
    c cp-fx-ranks fixate $FX --ranks 3 --checkpoint-out cp-fx-ranks.json --checkpoint-every 5
    c cp-fx-resume fixate --resume cp-fx.json
    # Kill -> resume, per family; plus the degraded exit without a file.
    c kill-dist distributed --ranks 4 $WM --every-generation $KILL --kill-at 30 --checkpoint-out kill-dist.json --manifest-out kill-dist.manifest.json
    c kill-dist-resume distributed --ranks 4 --every-generation --resume kill-dist.json
    c kill-dist-resume-shared run --resume kill-dist.json
    c kill-dist-nofile distributed --ranks 3 $WM --every-generation $KILL --kill-at 10
    # On demand: the kill is first seen where a later pair needs rank 1.
    c kill-dist-od distributed --ranks 4 $WM $KILL --kill-at 30 --checkpoint-out kill-dist-od.json
    c kill-dist-od-resume distributed --ranks 4 --resume kill-dist-od.json
    c kill-sp spatial $SP --ranks 3 $KILL --kill-at 20 --checkpoint-out kill-sp.json --records kill-sp.jsonl
    c kill-sp-resume spatial --ranks 3 --resume kill-sp.json --records kill-sp-resume.jsonl
    c kill-sp-resume-shared spatial --resume kill-sp.json
    c kill-sp-first spatial $SP --ranks 3 $KILL --kill-at 0 --checkpoint-out kill-sp-first.json --records kill-sp-first.jsonl
    c kill-fx fixate $FX --ranks 3 $KILL --kill-at 6 --checkpoint-out kill-fx.json
    c kill-fx-resume fixate --ranks 3 --resume kill-fx.json --records kill-fx-resume.jsonl
    c kill-fx-resume-shared fixate --resume kill-fx.json --records kill-fx-resume-shared.jsonl
    # Refusals both builds make, with their messages.
    c bad-rule run --rule telepathy
    c bad-every run $WM --checkpoint-every 5
    c bad-kind spatial --resume cp-run.json
    c bad-mu fixate --mu 0.1
    # The service: 8 jobs, one worker.
    jobs > jobs.jsonl
    c serve serve --workers 1 --queue-depth 16 --spool spool --requests jobs.jsonl
}

normalise() {
    for f in "$1"/*.out "$1"/*.err; do
        sed -E 's/ in [0-9]+\.[0-9]+s/ in Xs/; s/, [0-9]+\.[0-9]+s$/, Xs/; s/dead ranks \[[^]]*\]\): rank [0-9]+ is dead/dead ranks [..]): rank N is dead/' "$f" > "$f.n"
        mv "$f.n" "$f"
    done
    sed -E -i 's/messages [0-9]+/messages N/' "$1"/kill-dist*.out "$1"/kill-dist*.err
    rm "$1/kill-dist.manifest.json"
    sed -i '/"counters": {/,/}/d' "$1/spool/wm-faulty/receipt.json"
    for f in "$1"/*.manifest.json; do
        sed -E '/"elapsed_seconds"/d; /"(per_generation_ns|buckets|spans)": \[$/,/^ *\],?$/d' "$f" > "$f.n"
        mv "$f.n" "$f"
    done
    sed -E -i 's/"(payoff_cache_hits|payoff_cache_misses|games_played|rounds_simulated)": [0-9]+/"\1": X/' "$1/fx-shared.manifest.json"
    find "$1/spool" -name receipt.json -exec sed -E -i 's/"jobs_accepted": [0-9]+/"jobs_accepted": X/' {} +
}

for side in parent child; do
    rm -rf "$WORK/$side"
    mkdir -p "$WORK/$side"
done
(cd "$WORK/parent" && run_list "$PARENT")
(cd "$WORK/child" && run_list "$CHILD")
normalise "$WORK/parent"
normalise "$WORK/child"
if diff -r "$WORK/parent" "$WORK/child" > "$WORK/identity.diff"; then
    echo "identical: $(ls "$WORK/parent"/*.rc | wc -l) commands, $(find "$WORK/parent" -type f | wc -l) files ($WORK)"
else
    cat "$WORK/identity.diff"
    echo "cli_identity: the builds differ (trees kept in $WORK)" >&2
    exit 1
fi
