#!/usr/bin/env bash
# Offline CI for qdp-jit-rs.
#
# The workspace has a zero-registry-dependency policy (see DESIGN.md):
# every Cargo.toml must reference only workspace member crates by path, so
# a clean checkout builds and tests with no network at all. This script
# enforces that policy, then runs the tier-1 gate fully offline.
set -euo pipefail
cd "$(dirname "$0")"
# Snapshot of the working tree; the last stage checks ci.sh changed nothing.
git_state() { git status --porcelain 2>/dev/null || true; }
tree_before=$(git_state)

# ---- Guard: no registry dependencies in any manifest -----------------------
# A registry dependency is any dependency entry that carries a version
# requirement (`foo = "1.2"` or `version = "..."`). Path/workspace deps
# never need one inside this repo.
fail=0
while IFS= read -r manifest; do
    bad=$(awk '
        /^\[/ { in_dep = ($0 ~ /dependencies/) }
        in_dep && /^[A-Za-z0-9_-]+[[:space:]]*=/ {
            if ($0 ~ /path[[:space:]]*=/ || $0 ~ /workspace[[:space:]]*=/) next
            if ($0 ~ /^[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*"/ || $0 ~ /version[[:space:]]*=/) print "    " $0
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "registry dependency found in $manifest:" >&2
        echo "$bad" >&2
        fail=1
    fi
done < <(find . -name Cargo.toml -not -path "./target/*")
if [ "$fail" -ne 0 ]; then
    echo "FAIL: the workspace must stay free of crates.io dependencies" >&2
    exit 1
fi
echo "ok: no registry dependencies in any Cargo.toml"

# ---- Guard: no deprecated items anywhere in the workspace ------------------
# The transition shims (`get_or_compile*`, `eval_expr*`) are gone;
# `compile(CompileRequest)`, `eval(ctx, target, expr, subset)` and
# `QdpContext::builder()` are the only supported entry points. Nothing in
# the tree may reintroduce a `#[deprecated]` item — deprecation happens in
# a PR that also migrates every caller, never as a parking lot.
stale=$(grep -rn '#\[deprecated' --include='*.rs' crates src examples || true)
if [ -n "$stale" ]; then
    echo "FAIL: #[deprecated] items found — migrate callers and remove them:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: zero #[deprecated] items in the workspace"

# ---- Guard: no panic-on-hangup comm paths ----------------------------------
# Peer loss is a recoverable condition: every comm path must surface a
# structured CommError (PeerLost/Timeout/RankKilled), never unwrap a
# disconnected channel. The old panicking idioms must not come back.
panics=$(grep -rn 'expect("peer rank hung up")\|expect("rank thread panicked")' \
    --include='*.rs' crates || true)
if [ -n "$panics" ]; then
    echo "FAIL: comm layer panics on peer loss instead of returning CommError:" >&2
    echo "$panics" >&2
    exit 1
fi
echo "ok: no panic-on-hangup comm paths"

# ---- Guard: only QdpConfig::from_env reads QDP_* runtime knobs -------------
# Libraries and binaries take typed config; the one reader of the runtime
# environment is crates/core/src/config.rs. Harness-only variables
# (proptest seeds, snapshot regeneration) are not runtime knobs.
env_reads=$(grep -rnE 'env::var(_os)?\("QDP_' --include='*.rs' crates/*/src \
    | grep -v '^crates/core/src/config.rs:' \
    | grep -vE 'QDP_PROPTEST_|QDP_UPDATE_SNAPSHOTS' || true)
if [ -n "$env_reads" ]; then
    echo "FAIL: QDP_* read outside QdpConfig::from_env:" >&2
    echo "$env_reads" >&2
    exit 1
fi
echo "ok: QdpConfig::from_env is the only QDP_* reader"

# ---- Guard: the twin statement paths and their knobs stay deleted ----------
# One planner, one PTX generator constructor, one launcher, one overlap
# model. (Spelled in pieces so this script does not trip its own grep.)
twins="new_""fused|launch_""single|cg_solve_""immediate|set_""fuse|set_stream_""schedule|QDP_STREAM_""OVERLAP"
stale=$(grep -rnE "$twins" crates src examples README.md DESIGN.md || true)
if [ -n "$stale" ]; then
    echo "FAIL: a deleted twin path or its knob is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: no twin statement path, fusion override or second overlap model"

# ---- Guard: one stream model --------------------------------------------------
# Work runs on the issuing thread's bound stream. The stream-confined job
# twins, the explicit-stream scope entry, the single-clock Device wrappers,
# the dslash knob and the extra context constructors stay deleted.
twins="plaquette_""on|cg_solve_""on|hmc_trajectory_""on|CgJob""Report|HmcJob""Report|assign_""stream"
twins="$twins|launch_""tuned\\(|advance_""clock|account_""launch\\(|set_streamed_""dslash"
twins="$twins|QDP_STREAM_""DSLASH|QdpContext::""with_"
stale=$(grep -rnE "$twins" crates src examples README.md DESIGN.md || true)
if [ -n "$stale" ]; then
    echo "FAIL: a deleted stream twin, single-clock wrapper or its knob is back:" >&2
    echo "$stale" >&2
    exit 1
fi
# Application and planner code never name stream 0: they run wherever the
# caller stands.
named=$(grep -rn 'StreamId::DEFAULT' crates/chroma-mini/src crates/serve/src \
    crates/core/src/codegen || true)
if [ -n "$named" ]; then
    echo "FAIL: application/planner code names the default stream:" >&2
    echo "$named" >&2
    exit 1
fi
echo "ok: one stream model (no stream twins, no single-clock wrappers, no stream 0 in application code)"

# ---- Guard: one application path at any rank count --------------------------
# The rank grid attaches to the context: `Lattice::assign` exchanges halos
# and reductions allreduce, so the distributed HMC twin, MultiRank's own
# reduction family, the unused corner exchange and the fermion keep-alive
# shims stay deleted. (Spelled in pieces, as above.)
twins="dist_""action|dist_""force|dist_""kinetic|exchange_""corner|corner_""neighbor"
twins="$twins|_keep_""transpose|_keep_""times_minus_i|contains_""shift"
stale=$(grep -rnE "$twins" crates src examples README.md DESIGN.md || true)
if [ -n "$stale" ]; then
    echo "FAIL: a deleted N-rank twin or dead helper is back:" >&2
    echo "$stale" >&2
    exit 1
fi
# Application code never names a rank: only the campaign driver (which owns
# the cluster) attaches one, and nobody evaluates *through* a MultiRank
# (its `eval` takes a target FieldRef, hence the pattern).
named=$(grep -rnE 'MultiRank|multinode::' crates/chroma-mini/src \
    | grep -v '^crates/chroma-mini/src/campaign.rs:' || true)
through=$(grep -rnE '\.eval\([a-z_.]*fref\(\)' crates/chroma-mini/src crates/bench/src \
    examples || true)
if [ -n "$named$through" ]; then
    echo "FAIL: application code names a rank or evaluates through one:" >&2
    echo "$named$through" >&2
    exit 1
fi
echo "ok: one application path (no dist_* twin, no MultiRank reductions, ranks named only by the campaign driver)"

# ---- Guard: one kernel identity ----------------------------------------------
# A statement group is walked once, keyed once and looked up once: the
# context's key -> PTX-text map, the per-statement flag walker and the
# persistence master switch (on iff a directory is given) stay deleted.
# (Spelled in pieces, as above.)
twins="ptx_""for_key|try_ptx_""for_key|ptx_""texts|fn scalar_""flags|QDP_""CACHE([^_A-Z]|\$)"
stale=$(grep -rnE "$twins" crates src examples README.md DESIGN.md || true)
if [ -n "$stale" ]; then
    echo "FAIL: a second kernel identity or the persistence master switch is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: one kernel identity (no key -> text map, no second traversal, no persistence master switch)"

# ---- Guard: one executor ------------------------------------------------------
# Kernels run in lane tiles over live-range-allocated register columns: the
# thread-at-a-time interpreter and its runaway-loop step limit stay deleted
# (lowering admits no branch but an exit, so nothing can loop). (Spelled in
# pieces, as above.)
twins="fn run_""thread|exceeded step ""limit"
stale=$(grep -rnE "$twins" crates src examples README.md DESIGN.md || true)
if [ -n "$stale" ]; then
    echo "FAIL: the thread-at-a-time interpreter or its step limit is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: one executor (no thread-at-a-time interpreter, no step limit)"

# ---- Guard: one execution pool ----------------------------------------------
# A launch's lane tiles run on one persistent pool: no region spawns scoped
# threads, the unused parallel map stays deleted, and the host's CPU count
# is queried in one place (once per thread), never per launch. (Spelled in
# pieces, as above.)
spawned=$(grep -rnE "thread::""scope|parallel_""map" crates/gpu-sim/src crates/jit/src || true)
query="available_""parallelism("
sim_queries=$({ grep -rnF "$query" crates/gpu-sim/src || true; } | wc -l)
jit_queries=$({ grep -rnF "$query" crates/jit/src || true; } | wc -l)
if [ -n "$spawned" ] || [ "$sim_queries" -ne 1 ] || [ "$jit_queries" -ne 0 ]; then
    echo "FAIL: a second execution path or a per-launch parallelism query is back:" >&2
    [ -z "$spawned" ] || echo "$spawned" >&2
    echo "parallelism queries: gpu-sim $sim_queries (want 1), jit $jit_queries (want 0)" >&2
    exit 1
fi
echo "ok: one execution pool (no scoped spawning, no parallel map, one parallelism query)"

# ---- Guard: one benchmark referee ----------------------------------------------
# `qdp-benchmark compare` (parent vs change, alternating on one host) is the
# only performance referee: the stored-baseline perf gate, its timing
# harness, its committed results file, its env knobs and the runtime
# optimizer override it needed stay deleted. crates/benchmark is frozen and
# its README still names the old file, so it is skipped. (Spelled in
# pieces, as above.)
twins="BENCH_""framework|QDP_""BENCH_|qdp_bench::""gate|timing::""Harness|set_""opt_level"
stale=$(grep -rnE --exclude-dir=benchmark "$twins" crates src examples tests \
    README.md DESIGN.md EXPERIMENTS.md || true)
if [ -n "$stale" ]; then
    echo "FAIL: the stored-baseline perf gate or the opt-level override is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: one benchmark referee (no stored-baseline gate, no timing harness, no opt-level override)"

# ---- Guard: linear compile path ----------------------------------------------
# The JIT miss path stays linear in the kernel: the optimizer's register
# tables are flat vectors indexed by class offset + id (no hash map keyed on
# a register or a register id — dead-code elimination is one worklist pass,
# not a rebuilt map per round), and the parser borrows its lines and
# operands instead of copying each into a String. (Spelled in pieces, as
# above.)
stale=$(grep -nE "HashMap<""Reg|HashMap<u32, ""u32>" crates/ptx/src/opt.rs || true)
copied=$(grep -nF "Vec<""String>" crates/ptx/src/parse.rs || true)
if [ -n "$stale$copied" ]; then
    echo "FAIL: a hash-keyed register table or a per-line String copy is back in the compile path:" >&2
    [ -z "$stale" ] || echo "$stale" >&2
    [ -z "$copied" ] || echo "$copied" >&2
    exit 1
fi
echo "ok: linear compile path (dense register tables in opt.rs, borrowed lines and operands in parse.rs)"

# ---- Guard: one tenant transport ----------------------------------------------
# A tenant reaches the server in process (`Server::submit` -> `JobTicket`):
# the channel-mesh transport, its wire codec and the comm-deadline knob that
# only the mesh read stay deleted, and qdp-serve does not depend on the
# cluster crate. crates/benchmark is frozen and skipped. (Spelled in pieces,
# as above.)
twins="serve_over_""mesh|Client""Plan|Mesh""Outcome|Client""Report|encode_""request"
twins="$twins|decode_""response|comm_timeout""_ms|QDP_COMM_""TIMEOUT|fn fault_""plan"
stale=$(grep -rnE "$twins" crates/*/src crates/*/tests src tests examples \
    | grep -v '^crates/benchmark/' || true)
dep=$(grep -n "qdp-""comm" crates/serve/Cargo.toml || true)
if [ -n "$stale$dep" ]; then
    echo "FAIL: a second tenant transport or the mesh-only comm deadline is back:" >&2
    [ -z "$stale" ] || echo "$stale" >&2
    [ -z "$dep" ] || echo "crates/serve/Cargo.toml: $dep" >&2
    exit 1
fi
echo "ok: one tenant transport (no channel-mesh serving, no wire codec, no comm-deadline knob)"

# ---- Guard: one telemetry surface ---------------------------------------------
# `ProfileReport` (with `ctx.roofline_report()`) and the flight ring are the
# one view of the registry: the JSON metrics exporter stays deleted, and so
# do the switches that only ever took their default — the roofline switch
# (the report prints under QDP_PROFILE), the flight on/off and capacity
# knobs (the 256-event ring is always on), the store-wipe knob and the
# store-config wrapper (QdpConfig::cache_dir is the one persistence
# setting), and the builder's whole-telemetry-config setter.
# crates/benchmark is frozen and skipped. (Spelled in pieces, as above.)
twins="Metrics""Snapshot|SNAPSHOT_""VERSION|enable_""roofline|roofline_""enabled|QDP_""ROOFLINE"
twins="$twins|QDP_""FLIGHT([^_]|\$)|QDP_FLIGHT_""CAP|flight_""cap|flight_""enabled"
twins="$twins|QDP_CACHE_""CLEAR|Store""Config|telemetry_""config"
stale=$(grep -rnE "$twins" crates/*/src crates/*/tests src tests examples README.md DESIGN.md \
    | grep -v '^crates/benchmark/' || true)
if [ -n "$stale" ]; then
    echo "FAIL: a second telemetry exporter or a default-only telemetry/store switch is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: one telemetry surface (no JSON metrics exporter, no roofline/flight/store-wipe switches)"

# ---- Guard: one bit-exact optimizer -------------------------------------------
# The optimizer has two levels, off and on, and both store the same bytes:
# the rounding-changing mul+add contraction level, its pass and its counter
# stay deleted, and the JIT has one compile entry point, compile_ptx(text).
# crates/benchmark is frozen and skipped. (Spelled in pieces, as above.)
twins="Aggress""ive|fuse_""fma|fmas_""fused|QDP_OPT""=2|compile_ptx""_opt"
stale=$(grep -rnE "$twins" crates/*/src crates/*/tests src tests examples README.md DESIGN.md \
    | grep -v '^crates/benchmark/' || true)
if [ -n "$stale" ]; then
    echo "FAIL: a non-bit-exact optimizer level or a second JIT compile entry point is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: one bit-exact optimizer (two levels, no fma contraction, one compile_ptx)"

# ---- Guard: generator prints the final kernel ----------------------------------
# The code generator prints the program that runs: PTX value numbering,
# redundant-load elimination and copy propagation stay folded into codegen
# (no pass after the generator rewrites PTX), their counters and the JIT's
# counter reporting stay deleted, the sweep needs no SSA precondition, and
# the kernel store keeps digests, so it has no payload to evict.
# crates/benchmark is frozen and skipped. (Spelled in pieces, as above.)
twins="loads_""eliminated|copies_""propagated|values_""reused|record_opt""_stats"
twins="$twins|is_ssa""_forward|evict""_kernel"
stale=$(grep -rnE "$twins" crates/*/src crates/*/tests src tests examples README.md DESIGN.md \
    | grep -v '^crates/benchmark/' || true)
if [ -n "$stale" ]; then
    echo "FAIL: a PTX rewrite after the generator, or a stored-program eviction path, is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: generator prints the final kernel (no PTX value numbering after codegen, no stored programs)"

# ---- Guard: one PTX dialect ---------------------------------------------------
# The parser, validation, optimizer, lowering and executor accept exactly
# the instructions the code generator emits: the math-subroutine calls and
# their declarations, the unary ops besides `neg`, the division ops and the
# shifts but the warp index's `shr.u32`, the signed types and the signed
# launch argument stay deleted, and so does the BiCGStab solver nothing
# called. crates/benchmark is frozen and skipped. (Spelled in pieces, as
# above.)
twins="Math""Fn|call\\.""uni|\\.extern \\.""func|Un""Op::|BinOp::""Div|BinOp::""Shl"
twins="$twins|PtxType::""S32|PtxType::""S64|LaunchArg::""S32|bicg""stab"
stale=$(grep -rnE "$twins" crates/*/src crates/*/tests src tests examples README.md DESIGN.md \
    | grep -v '^crates/benchmark/' || true)
if [ -n "$stale" ]; then
    echo "FAIL: an instruction outside the generator's dialect, or the unused BiCGStab solver, is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: one PTX dialect (no math calls, no non-neg unary ops, no div ops, no shift but shr.u32, no signed types, no BiCGStab)"

# ---- Guard: one serve state ---------------------------------------------------
# Each serve worker owns its stream for its whole life, and every serving
# statistic is settled under the scheduler lock: the stream checkout pool
# stays deleted, the server keeps the caller's telemetry setting instead
# of forcing profiling on, and server.rs keeps no atomic counters beside
# the lock. (Spelled in pieces, as above.)
pool=$(grep -rnE "Stream""Pool|Stream""Lease" crates || true)
forced=$(grep -rnF "telemetry().""enable()" crates/serve/src || true)
atomics=$(grep -nF "Atom""ic" crates/serve/src/server.rs || true)
if [ -n "$pool$forced$atomics" ]; then
    echo "FAIL: a second serve state (stream pool, forced profiling or atomic counters) is back:" >&2
    [ -z "$pool" ] || echo "$pool" >&2
    [ -z "$forced" ] || echo "$forced" >&2
    [ -z "$atomics" ] || echo "crates/serve/src/server.rs: $atomics" >&2
    exit 1
fi
echo "ok: one serve state (workers own their streams, no pool, caller's telemetry, no atomics in server.rs)"

# ---- Guard: one Dirac apply ---------------------------------------------------
# `WilsonDirac::apply`/`apply_dag` are one full-lattice statement on the
# issuing thread's stream, so they exchange halos on an attached rank: the
# checkerboard split onto a per-device even/odd stream pair and the
# find-or-create stream lookup only it used stay deleted. crates/benchmark
# is frozen and skipped. (Spelled in pieces, as above.)
twins="assign_""checkerboarded|dslash-""even|dslash-""odd|named_""stream|even_""stream|odd_""stream"
stale=$(grep -rnE "$twins" crates/*/src crates/*/tests src tests examples README.md DESIGN.md \
    | grep -v '^crates/benchmark/' || true)
if [ -n "$stale" ]; then
    echo "FAIL: the checkerboard-stream Dirac apply or its named-stream lookup is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: one Dirac apply (no checkerboard stream pair, no named-stream lookup)"

# ---- Guard: one halo launch path ----------------------------------------------
# The §V halo schedule launches its inner, face and no-overlap kernels
# through the one launch function instead of re-entering eval with a remote
# environment and a caller-managed site table; the context's one pinned-table
# cache holds the neighbour, subset, inner and face tables; and deferred
# scopes take no site lists. crates/benchmark is frozen and skipped.
# (Spelled in pieces, as above.)
twins="device_""sites|Device""Sites|assign_""sites|Stmt""Sites|site_""lists|fn site_""list\\b"
twins="$twins|alloc_""table|nbr_""tables|subset_""tables|\\.re""mote\\("
stale=$(grep -rnE "$twins" crates/*/src crates/*/tests src tests examples README.md DESIGN.md \
    | grep -v '^crates/benchmark/' || true)
if [ -n "$stale" ]; then
    echo "FAIL: a second halo launch path, a second table cache or a deferred site list is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: one halo launch path (no eval re-entry, one pinned-table cache, no deferred site lists)"

# ---- Guard: one statement surface ---------------------------------------------
# A statement is `(target, expr, subset)` on the issuing thread's bound
# stream at the context's optimizer level: the per-call parameter struct
# (stream, optimizer-level and site-list knobs), its site-selection enum,
# the per-call assignment and the site-list reference twin stay deleted.
# (Spelled in pieces, as above.)
twins="Eval""Params|assign_""with|eval_reference_""sites|Site""Spec"
stale=$(grep -rnE "$twins" crates src examples README.md DESIGN.md || true)
if [ -n "$stale" ]; then
    echo "FAIL: a second statement surface (per-call knobs or host site lists) is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: one statement surface (eval takes a subset; stream and optimizer level come from the context)"

# ---- Guard: one face message ---------------------------------------------------
# Each split face's halo is one message whose layout one function decides:
# the gather packs it, one receive buffer holds it, and the halo kernel
# reads it through one `recv_<mu>_<dir>` parameter. The per-leaf receive
# parameters, the per-leaf receive-buffer vectors and their scatter stay
# deleted. crates/benchmark is frozen and skipped. (Spelled in pieces, as
# above.)
twins="recv_\\{[^}]*\\}_\\{[^}]*\\}""_\\{|Vec<(qdp_gpu_sim::)?Device""Ptr>>|recv_""bufs|bufs\\[""li\\]"
stale=$(grep -rnE "$twins" crates/*/src crates/*/tests src tests examples README.md DESIGN.md \
    | grep -v '^crates/benchmark/' || true)
if [ -n "$stale" ]; then
    echo "FAIL: a per-leaf halo receive parameter or receive-buffer vector is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: one face message (one receive buffer and one kernel parameter per split face)"

# ---- Guard: one halo schedule --------------------------------------------------
# The §V schedule takes the fusion planner's statement group, so a program
# plans the same groups at any rank count: the planner's rank-grid rule and
# its counter, the single-statement limit on face messages and the
# single-statement halo error stay deleted. crates/benchmark is frozen and
# skipped. (Spelled in pieces, as above.)
twins="Bailout\\(\"ha""lo\"\\)|fuse\\.bailout\\.ha""lo|must not read face ""messages"
twins="$twins|single full-lattice ""statements"
stale=$(grep -rnE "$twins" crates/*/src crates/*/tests src tests examples README.md DESIGN.md \
    | grep -v '^crates/benchmark/' || true)
if [ -n "$stale" ]; then
    echo "FAIL: a halo rule or a single-statement limit on the halo schedule is back:" >&2
    echo "$stale" >&2
    exit 1
fi
echo "ok: one halo schedule (the planner's groups run the §V schedule as they are)"

# ---- Guard: one projector, one load form ---------------------------------------
# M† is the hopping term with its projector signs flipped, not M wrapped in
# two γ5 multiplies; and a lowered load or store has one addressed form
# (`Addr`: base, scaled index, offset), never a second variant beside it or
# a bare address register. crates/benchmark is frozen and skipped.
# (Spelled in pieces, as above.)
sandwich=$(grep -rnF "gamma(15) * self.""apply_expr(" crates/*/src crates/*/tests src tests examples \
    | grep -v '^crates/benchmark/' || true)
forms=$(grep -nE "^    (Ld|St)[A-Za-z0-9_]* \{" crates/jit/src/lower.rs \
    | grep -vE "^[0-9]+:    (Ld|St|Ld""Arg) \{" || true)
bare=$(grep -nE "^ +addr: ""u32,|Ld \{ ty, dst, addr: ""src" crates/jit/src/lower.rs || true)
if [ -n "$sandwich$forms$bare" ]; then
    echo "FAIL: the γ5 sandwich for M†, a second load/store variant or a bare address register is back:" >&2
    [ -z "$sandwich" ] || echo "$sandwich" >&2
    [ -z "$forms" ] || echo "crates/jit/src/lower.rs: $forms" >&2
    [ -z "$bare" ] || echo "crates/jit/src/lower.rs: $bare" >&2
    exit 1
fi
echo "ok: one projector, one load form (M† flips the projector signs; loads and stores take one Addr)"

# ---- Guard: one reduction order -----------------------------------------------
# A reduction reduces in its kernel: each warp sums its 32 threads with the
# shfl.bfly butterfly, the one cross-lane read, which the generator emits
# only in the reduction epilogue (`reduce_store`), and the second phase
# combines the partials the launches wrote, in one pairwise order. So the
# host-side lane-order sums over a full-lattice temporary stay deleted
# (`reduce_batch` reads no `vol`-sized range), and so do the serial
# site-order chain and its oracle. crates/benchmark is frozen and skipped.
# (Spelled in pieces, as above.)
twins="site_order""_sums|site-order"" fold|lane_order""_sums|lane""_sums|\\bLA""NES\\b"
stale=$(grep -rnE "$twins" crates/*/src crates/*/tests src tests examples README.md DESIGN.md \
    | grep -v '^crates/benchmark/' || true)
# Butterfly emission outside the function that writes the epilogue.
shfl=$(awk '/^ *(pub )?(\(crate\) )?fn /{f=$0} /Inst::Sh''fl|bfly_''f64\(/ && f !~ /fn reduce_store\(/ {print FILENAME ":" FNR ": " $0}' \
    crates/core/src/codegen/ptx_backend.rs)
# A second phase that reads a whole lattice's worth of values.
full=$(awk '/^pub\(crate\) fn reduce_batch\(/{on=1} on && /\<vol\>|n_sites|geometry\(\)/{print FILENAME ":" FNR ": " $0} on && /^}/{on=0}' \
    crates/core/src/eval.rs)
if [ -n "$stale$shfl$full" ]; then
    echo "FAIL: a second reduction order is back (host lane-order sums, a site-order chain, a shuffle outside the epilogue or a full-lattice second phase):" >&2
    [ -z "$stale" ] || echo "$stale" >&2
    [ -z "$shfl" ] || echo "$shfl" >&2
    [ -z "$full" ] || echo "$full" >&2
    exit 1
fi
echo "ok: one reduction order (warp butterfly in the kernel, pairwise partials on the host, no lane-order or site-order sums)"

# ---- Guard: one ISA dispatch --------------------------------------------------
# The interpreter's tile body is compiled once per host ISA and picked once
# per tile, in `run_tile`, outside the op loop: no op carries its own
# feature check (the per-op FMA wrapper stays deleted), and exec.rs detects
# host features nowhere but in that one dispatch.
fused=$(grep -rn "map3_fused" crates/*/src || true)
detects=$(awk '
    /^fn run_tile\(/ { inside = 1 }
    /is_x86_feature_detected/ { if (inside) n++; else print FILENAME ":" FNR ": " $0 }
    inside && /^}/ { inside = 0 }
    END { if (n != 1) print FILENAME ": " n + 0 " feature-detecting dispatches in run_tile (want 1)" }
' crates/jit/src/exec.rs)
if [ -n "$fused$detects" ]; then
    echo "FAIL: a per-op ISA check or a second ISA dispatch is back in the interpreter:" >&2
    [ -z "$fused" ] || echo "$fused" >&2
    [ -z "$detects" ] || echo "$detects" >&2
    exit 1
fi
echo "ok: one ISA dispatch (the tile body is picked per tile in run_tile, no per-op feature check)"

# ---- Guard: device memory is touched only in the arena -----------------------
# Every load and store of device memory goes through `qdp_gpu_sim::Arena`,
# whose checks (per access, once for a consecutive run, once for a gather's
# span) live next to the raw-pointer code in crates/gpu-sim/src/memory.rs.
# The interpreter holds no raw-pointer access of its own: exec.rs says
# `unsafe` only inside `run_tile`'s ISA dispatch, and nothing in
# crates/jit/src reads or writes through a pointer. A gather is memory-safe
# whatever bound its caller passes: `Arena::gather` refuses a span whose top
# index wraps and clamps every index to the bound before it reads.
unsafe_outside=$(awk '
    /^fn run_tile\(/ { inside = 1 }
    /unsafe/ && !inside { print FILENAME ":" FNR ": " $0 }
    inside && /^}/ { inside = 0 }
' crates/jit/src/exec.rs)
raw=$(grep -rnE 'read_unaligned|write_unaligned|ptr::' crates/jit/src || true)
gather=$(awk '/^    fn gather</ { inside = 1 }
    inside && /hi\.checked_add\(k\)/ { wrap = 1 }
    inside && /\.min\(hi\)/ { clamp = 1 }
    inside && /^    }/ { inside = 0 }
    END { if (!wrap || !clamp) print "crates/gpu-sim/src/memory.rs: Arena::gather lost its wrap check or its clamp" }
' crates/gpu-sim/src/memory.rs)
if [ -n "$unsafe_outside$raw$gather" ]; then
    echo "FAIL: the interpreter touches device memory outside the arena:" >&2
    [ -z "$unsafe_outside" ] || echo "$unsafe_outside" >&2
    [ -z "$raw" ] || echo "$raw" >&2
    [ -z "$gather" ] || echo "$gather" >&2
    exit 1
fi
echo "ok: device memory is touched only in the arena (no raw-pointer access in crates/jit/src; gathers checked and clamped in the arena)"

# ---- Guard: one tuning record ------------------------------------------------
# A compiled kernel holds its own §VII tuning record (`CompiledKernel::
# tuning`), filled at its first launch: nothing looks a kernel's tuning
# state up by name. The name-keyed tuner, its lookups and the context's
# accessor for it stay deleted.
named=$(grep -rnF -e 'AutoTuner' -e 'fn block_for' -e 'fn tuner(' -e 'HashMap<String, TuneState>' \
    crates/*/src | grep -v '^crates/benchmark/' || true)
if [ -n "$named" ]; then
    echo "FAIL: a name-keyed tuning lookup is back:" >&2
    echo "$named" >&2
    exit 1
fi
echo "ok: one tuning record (each compiled kernel holds its own, no lookup by name)"

# ---- Guard: one walk per statement ---------------------------------------------
# A statement is walked once, where it is recorded or where an immediate
# `eval` builds it (`impl Stmt` in fuse.rs): its signature — key tokens,
# leaf table, shifts, scalars, the leaves each shift reads — is read by the
# planner's legality checks, the launch path (the group key and tables are
# the signatures concatenated), the §V schedule and the kernel cache's
# token probe. So eval.rs, multinode.rs and fuse.rs call no expression walk
# anywhere else (test modules and eval.rs's CPU reference section aside):
# no `KernelSignature::of`, no `float_type`,
# `leaves_under_any_shift`, `reads_under_shift`, `has_shift` or
# `has_nested_shift`. The text key is rendered from the tokens piece by
# piece: `KernelSignature` never goes through the formatter. Comment lines
# are skipped.
rewalk=$(awk '
    FNR == 1 { done = 0; inside = 0; reference = 0 }
    /^#\[cfg\(test\)\]/ { done = 1 }
    /^impl.* Stmt(<.*>)? \{/ { inside = 1 }
    inside && /^\}/ { inside = 0; next }
    /^\/\/ Reference \(CPU\) evaluation/ { reference = 1 }
    /^\/\/ Reductions/ { reference = 0 }
    !done && !inside && !reference && !/^[[:space:]]*\/\// &&
    /KernelSignature::of|\.(float_type|leaves_under_any_shift|reads_under_shift|has_shift|has_nested_shift)\(/ {
        print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/codegen/fuse.rs crates/core/src/eval.rs crates/core/src/multinode.rs)
formatted=$(awk '/^impl KernelSignature \{/ { inside = 1 }
    inside && /^\}/ { inside = 0 }
    inside && !/^[[:space:]]*\/\// && /:\?|write!|format!/ {
        print FILENAME ":" FNR ": " $0 }' crates/expr/src/lib.rs)
if [ -n "$rewalk$formatted" ]; then
    echo "FAIL: a statement is walked again after it was recorded, or the key formats:" >&2
    [ -z "$rewalk" ] || echo "$rewalk" >&2
    [ -z "$formatted" ] || echo "$formatted" >&2
    exit 1
fi
echo "ok: one walk per statement (launch, planner and §V schedule read each Stmt's signature; the text key is rendered from its tokens)"

# ---- Guard: a launch prints and parses no PTX -----------------------------------
# A cold launch hands the kernel the generator built to the JIT
# (`KernelCache::compile_keyed`), which lowers it as built: the launch path
# (eval.rs, the §V schedule in multinode.rs, the fusion planner in fuse.rs)
# prints, parses and compiles no PTX text. Only the functions that print a
# kernel for a reader (`render_ptx`, `codegen_ptx`, `codegen_fused_ptx`),
# `use` lines, comment lines and test modules may name the text path.
printed=$(awk '
    FNR == 1 { done = 0; exempt = 0 }
    /^#\[cfg\(test\)\]/ { done = 1 }
    /^pub(\(crate\))? fn (render_ptx|codegen_ptx|codegen_fused_ptx)\(/ { exempt = 1 }
    exempt && /^\}/ { exempt = 0; next }
    !done && !exempt && !/^[[:space:]]*(\/\/|use )/ &&
    /emit_module|parse_module|compile_ptx|CompileRequest/ {
        print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/eval.rs crates/core/src/multinode.rs crates/core/src/codegen/fuse.rs)
if [ -n "$printed" ]; then
    echo "FAIL: the launch path prints, parses or compiles PTX text:" >&2
    echo "$printed" >&2
    exit 1
fi
echo "ok: a launch prints and parses no PTX (the JIT lowers the kernel the generator built)"

# ---- Tier-1 gate, offline --------------------------------------------------
cargo build --release --offline --workspace
cargo test -q --offline --workspace

# ---- Memory cache: write-only first touch + LRU spilling --------------------
# The cache and the device arena hold the crate's unsafe code, so their
# tests also run optimized. Then the §IV ablation: on the large device the
# 12 host-written fields page in and the never-written output is a first
# touch (zero-filled on the device, no transfer); on the tiny device the
# deterministic LRU spills exactly 81 times.
cargo test -q --release --offline -p qdp-cache -p qdp-gpu-sim
abl_out=$(cargo run --release --offline -q -p qdp-bench --bin cache_ablation)
# abl_val <device label> <counter>: the number after <counter> on that
# device's counter line.
abl_val() {
    echo "$abl_out" | awk -v dev="$1" -v key="$2" '
        $1 == dev { on = 1; next }
        on && /page-ins/ { sub(".*" key " +", ""); print $1; exit }'
}
for check in "large page-ins 12" "large first touches 1" "tiny spills 81" "tiny first touches 1"; do
    dev=${check%% *}; rest=${check#* }; key=${rest% *}; want=${rest##* }
    got=$(abl_val "$dev" "$key")
    if [ "$got" != "$want" ]; then
        echo "FAIL: cache_ablation $dev device $key = $got (want $want)" >&2
        echo "$abl_out" >&2
        exit 1
    fi
done
echo "ok: memory cache (release unit tests; ablation: 12 page-ins + 1 first touch, 81 spills under pressure)"

# ---- Stream engine: semantics + schedule tests ------------------------------
# Default-stream equivalence with the pre-stream clock model (bit-exact),
# event ordering, two-stream determinism, the §V stream schedule beating
# exchange-then-full-kernel, and 16 ranks beating 4 on one global lattice.
cargo test -q --offline -p qdp-core --test streams --test multirank
echo "ok: stream-engine semantics + schedule tests"

# ---- Fault tolerance: rank-failure injection + checkpoint/restart ----------
# The failure-injection matrix (rank killed before the fork, during the
# halo exchange, inside an allreduce) must surface structured errors on
# every rank, site-list device allocations must be freed on MultiRank
# drop, and the HMC campaign driver must restore a killed cluster from
# checkpoints bit-identically. `attached_rank` pins the N-rank trajectory
# to the single-rank one (and a one-rank grid to no change at all).
cargo test -q --release --offline -p qdp-core --test faults
cargo test -q --release --offline -p chroma-mini --test checkpoint --test attached_rank
echo "ok: failure-injection matrix + checkpoint/restart tests"

# ---- Telemetry smoke: profile + roofline + Chrome trace on a real workload -
# Run the Wilson-dslash example with the profiler (which also prints the
# roofline section) and the tracer on, then verify the trace with the
# in-tree checker: the file must
# exist, parse as Chrome trace JSON, contain at least one device kernel
# event, and every kernel event must carry the hardware-counter args
# (ld_tx/st_tx/occ). Every wilson_dslash launch, the residual check's
# apply_normal included, runs on the issuing thread's one stream, so no
# stream-count floor applies here; the rendering of >= 3 per-stream tracks
# is pinned in the tier-1 suite by multi_stream_trace_has_per_stream_tracks
# (crates/core/tests/streams.rs). The roofline
# section must classify the dslash-class kernels as memory-bound (the
# paper's Fig. 5 plateau).
trace=/tmp/qdp_ci_trace.json
obs_out=/tmp/qdp_ci_obs_out.txt
rm -f "$trace" "$obs_out"
QDP_PROFILE=1 QDP_TRACE="$trace" \
    cargo run --release --offline --example wilson_dslash > "$obs_out"
cargo run --release --offline -p qdp-telemetry --bin trace_check -- \
    "$trace" --min-kernel-events 1 --require-counters
grep -q 'QDP roofline' "$obs_out"
grep -q 'memory-bound' "$obs_out"
rm -f "$trace" "$obs_out"
echo "ok: telemetry profile + hardware counters + roofline + trace smoke"

# ---- Flight recorder: forced launch failure dumps the black box -------------
# The probe performs healthy launches then forces a launch failure; the
# telemetry layer must drop an atomically-written qdp-flight-<pid>-<n>.json
# containing the failing event, and the checker must validate its schema.
flight_dir=$(mktemp -d)
flight_dump=$(cargo run --release --offline -p qdp-bench --bin flight_probe -- "$flight_dir")
cargo run --release --offline -p qdp-telemetry --bin trace_check -- \
    --flight "$flight_dump" --require-kind launch_fail
rm -rf "$flight_dir"
echo "ok: flight recorder dump on launch failure"

# ---- Conformance: JIT pipeline vs CPU reference ----------------------------
# Fixed-seed differential sweeps (200 random expression DAGs per precision),
# normal device and cache-pressure (forced LRU spill/page-in) configurations,
# then a time-boxed PTX mutation-fuzz smoke over the parse→validate→lower
# front end (structured errors or round-trip, never a panic).
cargo run --release --offline -p qdp-conformance --bin conformance -- \
    sweep --cases 200 --ft both
cargo run --release --offline -p qdp-conformance --bin conformance -- \
    sweep --cases 200 --ft both --pressure
cargo run --release --offline -p qdp-conformance --bin conformance -- \
    fuzz --budget-ms 10000
echo "ok: conformance sweeps + PTX fuzz smoke"

# ---- Kernel optimizer ------------------------------------------------------
# The differential sweep must stay green with the optimizer off too (the
# default level ran above; the fuzz smoke already pushes every accepted
# mutant through the optimizer), and the optimized pipeline must agree
# with the unoptimized one bit-for-bit (--opt-diff, 0-ULP contract).
QDP_OPT=0 cargo run --release --offline -p qdp-conformance --bin conformance -- \
    sweep --cases 200 --ft both
cargo run --release --offline -p qdp-conformance --bin conformance -- \
    sweep --cases 200 --ft both --opt-diff
echo "ok: optimizer conformance (QDP_OPT=0, opt-diff)"

# ---- Kernel fusion ----------------------------------------------------------
# Three contracts. (1) fuse-diff: random statement *sequences* (shared
# leaves, producer->consumer chains, shifted reads, write-after-write
# hazards) evaluated through the fusion planner and per-expression must
# agree bit-for-bit (0 ULP). (2) The launch-count guard: a 10-iteration CG
# under QDP_FUSE=1 must issue >=30% fewer launches with bit-identical
# results. (3) Budget 1 (QDP_FUSE=0, builder().fuse(false)) reproduces the
# per-statement launch signature on the same planner — the guard tests
# cover both, and the chroma-mini solver test pins fused-vs-budget-1 CG
# bit-exactness, one launch per recorded statement end to end, and the fused
# 10-iteration CG at 43 launches and less simulated time than budget 1.
cargo run --release --offline -p qdp-conformance --bin conformance -- \
    sweep --cases 200 --ft both --fuse-diff
cargo test -q --release --offline -p qdp-core --test fusion
QDP_FUSE=0 cargo test -q --release --offline -p chroma-mini --lib solver
echo "ok: kernel fusion (fuse-diff 0-ULP sweep + launch-count guard + budget-1 bit-exactness)"

# ---- Persistent kernel cache: cold vs warm across processes ----------------
# Two fresh processes share one QDP_CACHE_DIR. The first (cold) compiles
# and tunes the dslash kernel and persists its digest and block size; the
# second (warm) must miss nothing — zero JIT misses, zero `opt.*` counters
# (nothing records one), zero tuner trials, >=1 persisted-kernel hit — and
# pay less modelled translation time than the cold run: none, since the
# store's saving is the driver-JIT cost on the simulated clock. The store
# keeps digests, not programs, so a warm start still generates, prints (for
# the digest) and lowers each kernel; its first-eval wall time is reported,
# not compared (DESIGN.md "Persistent kernel cache").
cache_dir=$(mktemp -d)
cold_out=$(QDP_CACHE_DIR="$cache_dir" \
    cargo run --release --offline -p qdp-bench --bin persist_probe)
warm_out=$(QDP_CACHE_DIR="$cache_dir" \
    cargo run --release --offline -p qdp-bench --bin persist_probe)
rm -rf "$cache_dir"
probe_val() { echo "$2" | awk -v k="$1" '$1 == k { print $2 }'; }
cold_wall=$(probe_val wall_first_eval_us "$cold_out")
warm_wall=$(probe_val wall_first_eval_us "$warm_out")
for check in "jit_misses 0" "opt_counters 0" "tuner_trials 0" "persist_corrupt 0"; do
    k=${check% *}; want=${check#* }
    got=$(probe_val "$k" "$warm_out")
    if [ "$got" != "$want" ]; then
        echo "FAIL: warm persist_probe $k = $got (want $want)" >&2
        echo "$warm_out" >&2
        exit 1
    fi
done
[ "$(probe_val persist_hits "$warm_out")" -ge 1 ]
[ "$(probe_val tuner_seeded "$warm_out")" -ge 1 ]
cold_model=$(probe_val modeled_compile_ms "$cold_out")
warm_model=$(probe_val modeled_compile_ms "$warm_out")
if ! awk -v c="$cold_model" -v w="$warm_model" 'BEGIN { exit !(w == 0 && w < c) }'; then
    echo "FAIL: warm modelled translation (${warm_model} ms) not zero and below cold (${cold_model} ms)" >&2
    exit 1
fi
echo "ok: persistent kernel cache warm start (modelled translation cold ${cold_model} ms -> warm ${warm_model} ms; first eval cold ${cold_wall} us, warm ${warm_wall} us; zero warm misses/opt counters/tuner trials)"

# ---- Campaign smoke: kill a rank mid-trajectory, restore, bit-identical ----
# The probe runs the same distributed HMC campaign clean and with an
# injected rank kill; the faulted run must actually restore from
# checkpoints (restores >= 1) and finish with the exact plaquette bits
# and Metropolis decisions of the clean run.
campaign_out=$(cargo run --release --offline -p qdp-bench --bin campaign_probe)
for check in "plaq_bits_match 1" "accept_match 1"; do
    k=${check% *}; want=${check#* }
    got=$(probe_val "$k" "$campaign_out")
    if [ "$got" != "$want" ]; then
        echo "FAIL: campaign_probe $k = $got (want $want)" >&2
        echo "$campaign_out" >&2
        exit 1
    fi
done
[ "$(probe_val restores "$campaign_out")" -ge 1 ]
echo "ok: campaign kill -> checkpoint restore -> bit-identical history ($(probe_val restores "$campaign_out") restore)"

# ---- Serving: multi-tenant front-end under and over the admission threshold -
# One in-process client thread per tenant. Phase 1 (8 tenants x 6 mixed
# jobs over 8 workers, one stream each, windows within the caps): every job answered,
# zero rejections, and the Perfetto trace must show >= 8 distinct
# `serve-<n>` device stream tracks — the interleaving evidence. Phase 2
# (tiny caps, aggressive windows): rejections MUST happen and every request
# still gets a structured answer (deadlock=0 on both phases proves no hang).
serve_out=/tmp/qdp_ci_serve_out.txt
serve_trace=/tmp/qdp_ci_serve_trace.json
rm -f "$serve_out" "$serve_trace"
SERVE_TRACE="$serve_trace" \
    cargo run --release --offline -p qdp-serve --bin serve_probe > "$serve_out"
serve_val() { awk -F= -v k="$1" '$1 == k { print $2 }' "$serve_out"; }
[ "$(serve_val tenants)" -ge 8 ]
[ "$(serve_val rejected)" -eq 0 ]
[ "$(serve_val failed)" -eq 0 ]
[ "$(serve_val deadlock)" -eq 0 ]
[ "$(serve_val min_tenant_completed)" -ge 1 ]
[ "$(serve_val streams_used)" -ge 8 ]
[ "$(serve_val stream_tracks)" -ge 8 ]
[ "$(serve_val sat_rejected)" -ge 1 ]
[ "$(serve_val sat_failed)" -eq 0 ]
[ "$(serve_val sat_deadlock)" -eq 0 ]
echo "ok: serving front-end ($(serve_val tenants) tenants, $(serve_val stream_tracks) stream tracks, \
$(serve_val jobs_per_sec) jobs/s, p99 $(serve_val p99_ms) ms; saturation rejected $(serve_val sat_rejected) without deadlock)"
rm -f "$serve_out" "$serve_trace"

# ---- The run left the working tree as it found it ---------------------------
tree_after=$(git_state)
if [ "$tree_before" != "$tree_after" ]; then
    echo "FAIL: ci.sh modified the working tree:" >&2
    diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
    exit 1
fi
echo "ok: working tree unchanged by ci.sh"

echo "ci.sh: all green (offline build + workspace tests + stream engine + observability smoke + conformance + optimizer + fusion + persist + campaign + serving + clean tree)"
