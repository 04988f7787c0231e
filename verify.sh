#!/usr/bin/env bash
# Tier-1 verification gate (see README.md § Testing). Every change must pass
# this before it lands: static checks (gofmt, go vet, and the repo's own
# inframe-lint invariant suite with per-analyzer timings), a full build,
# vet and short tests of the separately moduled cmd/inframe-perf benchmark
# (which `go build ./...` never compiles) plus its bit-identity check of the
# blind pose solve on the benchmark's own captures, an arm64 cross-compile
# of every command, example and test binary checked free of fused
# multiply-adds (which round differently from amd64's separate
# instructions), the complete test suite
# under the race detector (the worker pools in internal/parallel make data
# races a correctness class, not a theoretical one), a coverage floor on
# internal/analysis (the lint gate's own engine), the steady-state
# allocation tests and the bounded-display memory gate without
# instrumentation (so AllocsPerRun and the heap counters see the real
# figures), the fixed-point kernel identity suite under -race
# (bit-identity and error-bound pins for the int32 kernels and the fused
# renderer, DESIGN.md §5j, and the fused, retiring drive path, §5l), the fault-injection robustness
# matrix under -race plus a short fuzz smoke of the decode entry points,
# the camera-pose gate under -race (blind projective calibration rows,
# frontal bit-identity, worker invariance of the solve's concurrent
# candidate chains, a coverage floor on internal/register and fuzz
# smokes of the DLT solve and the inverse warp),
# the broadcast-fleet determinism suite under -race (N concurrent
# receivers sharing one pool and one display), the experiment goldens
# (every paper table rerun and compared byte for byte), one iteration of the
# sequential-vs-parallel benchmarks as a smoke test, and the
# inframe-benchdiff regression gate against the committed BENCH_*.json
# baseline (+15% ns/op tolerance, allocs/op gated alongside; a slowdown
# fails only when it survives both the raw and the machine-speed-
# calibrated reading, so container speed drift cannot flake the gate).
#
# Usage: ./verify.sh [-short]
#   -short  gate the race run on `go test -short` (skips the long
#           full-pipeline experiment suites) and skip the robustness,
#           fleet, experiment golden, benchmark smoke and benchdiff
#           stages entirely; use for quick iteration.
#
# Each stage prints its wall-clock time on completion so slow stages are
# visible; a summary repeats all of them — including skipped stages — at
# the end.
set -euo pipefail
cd "$(dirname "$0")"

short=""
if [[ "${1:-}" == "-short" ]]; then
	short="-short"
fi

timings=()

# stage <name> <command...> — run one gate stage, timing it.
stage() {
	local name="$1"
	shift
	echo "== $name =="
	local t0=$SECONDS
	"$@"
	local dt=$((SECONDS - t0))
	timings+=("$(printf '%4ds  %s' "$dt" "$name")")
	echo "-- $name: ${dt}s"
}

# skip <name> — record a stage the current mode does not run.
skip() {
	local name="$1"
	echo "== $name (skipped: -short) =="
	timings+=("$(printf '%5s  %s (skipped)' '-' "$name")")
}

check_gofmt() {
	local unformatted
	unformatted=$(gofmt -l .)
	if [[ -n "$unformatted" ]]; then
		echo "gofmt needed: $unformatted" >&2
		return 1
	fi
}

run_lint() {
	# -timings prints the per-analyzer wall-clock attribution (including
	# the shared module-summary fixpoint as its own row) to stderr, so a
	# slow analyzer is visible in the gate log, not just the stage total.
	go run ./cmd/inframe-lint -timings ./...
}

run_perf_module() {
	# cmd/inframe-perf is its own module (its go.mod replaces inframe with
	# the repository root), so `go build ./...` and `go test ./...` skip it
	# although it imports the library's internal packages. Vet it and run
	# its short tests — including the traced-vs-untraced bit-identity check
	# against its own copy of the capture schedule — offline. Then run the
	# one check -short skips: the blind pose solve on the benchmark's own
	# 1280x720 calibration captures must reproduce the pinned homography
	# bit for bit (a few seconds).
	GOFLAGS=-mod=readonly go -C cmd/inframe-perf vet ./...
	GOFLAGS=-mod=readonly go -C cmd/inframe-perf test -short ./...
	GOFLAGS=-mod=readonly go -C cmd/inframe-perf test -count=1 -run '^TestPoseFixtureIsTheSolve$' ./...
}

run_arm64_fma() {
	# Go may fuse x*y + z into one fused multiply-add, which rounds once
	# where separate instructions round twice; amd64 never fuses, arm64
	# does, so a bit-identical result on amd64 says nothing about arm64
	# unless the code forbids fusion with explicit float64(x*y) (or
	# float32(x*y)) conversions. Every pinned output — goldens, digests,
	# robustness windows, the pose fixture, the Y4M export — must hold on
	# both, and so must the bit-identity pins, whose references live in
	# test files: cross-compile every command, every example and every
	# package's test binary for arm64 and fail on any
	# FMADD/FMSUB/FNMADD/FNMSUB in a function of this module (the root
	# package, internal/..., a command's main package) one of them links.
	local dir dis fused fn bin
	dir=$(mktemp -d)
	GOARCH=arm64 go build -o "$dir/bin/" ./cmd/... ./examples/...
	GOARCH=arm64 go test -c -o "$dir/test/" ./... >/dev/null
	dis=""
	for bin in "$dir"/bin/* "$dir"/test/*; do
		dis+=$(go tool objdump -s '^(inframe(/|\.|_test\.)|main\.)' "$bin")$'\n'
	done
	rm -rf "$dir"
	# An empty or partial listing (a renamed package or function, a
	# pattern that no longer matches, a binary left out) must not pass as
	# clean.
	for fn in 'register.mfScoreStride' 'frame.areaRow2' 'impair.(*Stack).ApplyFrame' \
		'video.(*SunRise).FrameInto' 'core.(*Receiver).scanCodes' \
		'frame.(*RGB).YCbCr' 'video.(*ColorSunRise).FrameRGB' \
		'video.refSunRiseFrameInto' 'frame.referenceWarpInto'; do
		if ! grep -qF "TEXT inframe/internal/$fn(SB)" <<<"$dis"; then
			echo "arm64 disassembly lacks $fn; fix the objdump pattern" >&2
			return 1
		fi
	done
	fused=$(awk '/^TEXT / { fn = $2 } /\t(FMADD|FMSUB|FNMADD|FNMSUB)/ { print fn, $1 }' <<<"$dis" | sort -u)
	if [[ -n "$fused" ]]; then
		echo "fused multiply-adds in the arm64 build (add float64(x*y) conversions):" >&2
		echo "$fused" >&2
		return 1
	fi
	echo "no fused multiply-adds in the arm64 builds"
}

run_tests() {
	# The experiment suites run the full pipeline repeatedly; under the race
	# detector they need more than the default 10m per-package budget.
	go test -race -timeout 60m $short ./...
}

run_analysis_cover() {
	# The analysis package is the lint gate's own engine: hold its test
	# coverage above a floor so analyzers cannot land without fixtures.
	# The floor respects -short, where the module-wide self-lint test
	# (the single biggest coverage contributor) is skipped.
	local floor=88
	if [[ -n "$short" ]]; then
		floor=78
	fi
	local out pct
	out=$(go test $short -cover ./internal/analysis/)
	echo "$out"
	pct=$(sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p' <<<"$out")
	if [[ -z "$pct" ]]; then
		echo "no coverage figure in go test output" >&2
		return 1
	fi
	echo "internal/analysis coverage ${pct}% (floor ${floor}%)"
	awk -v p="$pct" -v f="$floor" 'BEGIN { exit (p + 0 >= f) ? 0 : 1 }'
}

run_alloc_tests() {
	# Uninstrumented rerun of the steady-state allocation tests: they pass
	# under -race too, but only this run measures the true allocs/op that
	# the BENCH_*.json baselines pin.
	# TestSimulateDisplayMemoryFlat and TestFleetMemoryFlat are the bounded
	# display gates of Simulate and fleet.Run: heap traffic per simulated
	# second must stay far below one second of drive history. They skip
	# under -race, so this is the run that counts.
	# TestCaptureDrawsNoDisplayPlane pins the row-streamed capture's pool
	# borrows (no display-resolution plane); TestSunRiseFrameIntoAllocs pins
	# the clip's allocation-free render and skips under -race.
	# TestPoseStageAllocs pins the camera-pose stage's heap: one warp plan
	# per capture size and pose, shared by every Stack, and a warm posed
	# capture, warped in place, allocates nothing and takes no plane from
	# any pool; it skips under -race. TestSimulateReusesDriveSlots pins the drive-slot
	# recycling of closed displays: a second Simulate of the same panel
	# allocates no slot; it skips under -race. TestCaptureNoiseAllocs pins
	# the sensor noise's pooled generator state: a warm noisy capture
	# allocates what a noiseless one does; TestImpairDrawAllocs pins that a
	# warm impairment stack's jitter and drop/dup draws allocate nothing;
	# both skip under -race. TestEnergyScanAllocs pins that a warm rigid
	# receiver measurement allocates only its two result slices, and
	# TestWarpPlanAllocs that a warm plan warp of an integral capture
	# allocates nothing: both keep their 8-bit scratch pooled and skip under
	# -race. TestWorkerCountInvariancePooled checks pooled output is
	# bit-identical to unpooled. CI's allocs job runs the same list: change
	# both together.
	go test -run 'TestSteadyStateFrameBufferAllocs|TestMultiplexerRenderAllocs|TestReceiverMeasureAllocs|TestWorkerCountInvariancePooled|TestSimulateDisplayMemoryFlat|TestFleetMemoryFlat|TestCaptureDrawsNoDisplayPlane|TestSunRiseFrameIntoAllocs|TestPoseStageAllocs|TestSimulateReusesDriveSlots|TestCaptureNoiseAllocs|TestImpairDrawAllocs|TestEnergyScanAllocs|TestWarpPlanAllocs' -count=1 .
}

run_kernels() {
	# The fixed-point identity gate in isolation under the race detector:
	# the int32 kernels' bit-identity/error-bound pins (internal/fixed), the
	# fused pair-aware renderer's equivalence to the direct clone+add+clamp
	# formulation at several worker counts (DESIGN.md §5j), gray and color
	# (each channel, the headroom taken over R, G and B; the color render
	# with the source's dirty-region hint equal to one without it, and its
	# skips equal to the grayscale multiplexer's), and the fused
	# drive path's: PushFrame's drive codes equal Push(Frame) and, under any
	# mix and order of Frame and PushFrame calls, Quant8 of the direct
	# reference render (the per-sign drive planes and the flat-Block byte
	# patterns, §5j), and the
	# bounded, retiring Simulate equals Transmit + CaptureAll (§5l). The
	# row-streamed capture and the hoisted sun-rise clip are pinned against
	# verbatim copies of the plane-based and per-pixel code they replaced,
	# and the row-major column passes against column-gather references.
	# The precomputed warp plan is pinned against WarpInto and a verbatim
	# copy of the per-pixel projective warp, with eight goroutines sharing
	# one plan; the 8-bit warps against WarpInto then Quantize (and the Q16
	# rounding against Round8 on every sample), the in-place warps against
	# a separate destination, the camera-pose stage against copy, warp and
	# Quantize (and its memoized plan shared by concurrent Stacks), and the
	# tabulated enlargement taps against the whole-plane
	# resample. The sensor's read noise generator is pinned against
	# math/rand's own stream, and the shutter integral without its clear
	# pass against a verbatim copy of the clear-then-accumulate form. The
	# 8-bit narrowing, the gamma encode row and the streamed window sums
	# are pinned against verbatim copies of the integrality scan and the
	# per-sample encode and against direct window sums, and the receiver's
	# streamed energy scan against a verbatim copy of the measurement it
	# replaced.
	go test -race -count=1 \
		-run 'TestFixedPointBitIdentity|TestRoundQ16MatchesRound8|TestGammaErrorBound|TestEncodeRowMatchesEncode8|TestNarrow8MatchesIsIntegral8|TestWindowRowsMatchesNaive|TestWindowRowsThinPlanes|TestWindowRowsRowOrder|TestRowAbsEnergy8MatchesNaive' \
		./internal/fixed/
	go test -race -count=1 \
		-run 'TestFusedRenderMatchesReference|TestIncrementalRenderMatchesFresh|TestRGBRenderMatchesReference|TestRGBDirtyHintMatchesUnhinted|TestRGBRenderStatsMatchGray|TestDeltaCacheFrozenPool|TestPushFrameMatchesPush|TestDriveMatchesReference|TestEnergyScanMatchesReference' \
		./internal/core/
	go test -race -count=1 -run 'TestSimulateMatchesTransmitCaptureAll' ./internal/channel/
	go test -race -count=1 \
		-run 'TestResamplerMatchesReference|TestBoxBlurMatchesColumnReference|TestWarpPlanMatchesWarpInto|TestWarpInto8MatchesQuantize|TestWarpInPlaceMatchesWarpInto' \
		./internal/frame/
	go test -race -count=1 -run 'TestPoseStageMatchesReference|TestPosePlanSharedAcrossStacks' ./internal/impair/
	go test -race -count=1 -run 'TestCaptureMatchesReference' ./internal/camera/
	go test -race -count=1 -run 'TestNormalMatchesMathRand' ./internal/detrng/
	go test -race -count=1 -run 'TestRowAverageMatchesReference' ./internal/display/
	go test -race -count=1 -run 'TestSunRiseMatchesReference' ./internal/video/
}

run_robustness() {
	# The fault-injection gate in isolation: the deterministic impairment
	# matrix (pinned availability/BER bounds, worker invariance, clean-path
	# bit-identity) rerun under the race detector, then a short
	# coverage-guided shake of the decode entry points: the batch decoder,
	# the online driver's Push and the GOB parity code. The fuzz smokes
	# extend the committed corpora, they do not replace a long fuzz run.
	go test -race -count=1 -run 'TestRobustnessMatrix|TestZeroImpairConfigIsCleanPath|TestImpairedDegradationAccounting' .
	go test -run '^$' -fuzz '^FuzzDecodeCaptures$' -fuzztime 10s ./internal/core
	go test -run '^$' -fuzz '^FuzzStreamingPush$' -fuzztime 10s ./internal/core
	go test -run '^$' -fuzz '^FuzzGOBParity$' -fuzztime 10s ./internal/core
}

run_register_cover() {
	# The registration package carries the blind geometric calibration the
	# pose experiments depend on: hold its coverage above a floor so solver
	# changes cannot land without geometry fixtures.
	local floor=85
	local out pct
	out=$(go test -cover ./internal/register/)
	echo "$out"
	pct=$(sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p' <<<"$out")
	if [[ -z "$pct" ]]; then
		echo "no coverage figure in go test output" >&2
		return 1
	fi
	echo "internal/register coverage ${pct}% (floor ${floor}%)"
	awk -v p="$pct" -v f="$floor" 'BEGIN { exit (p + 0 >= f) ? 0 : 1 }'
}

run_pose() {
	# The camera-pose gate in isolation: the pose rows of the robustness
	# matrix (blind projective calibration + rectified decode, pinned
	# availability windows and BER ceilings, worker invariance at 1/2/8)
	# and the frontal bit-identity contract, all under the race detector,
	# the blind solve's concurrent candidate chains repeated under the race
	# detector at 1/2/8 workers, then short coverage-guided shakes of the
	# two geometry entry points — the DLT solve on fuzzed correspondences
	# and the inverse warp on fuzzed homographies. FuzzRegister's target
	# runs 10–30 ms per input, so minimizing each new interesting input
	# for the default 60 s would eat the whole budget; one minimization
	# exec per input keeps the smoke fuzzing.
	go test -race -count=1 -run 'TestRobustnessMatrix/pose|TestFrontalPoseIsCleanPath' .
	go test -race -count=1 ./internal/register/
	go test -race -count=10 -run TestCalibrateProjectiveWorkerInvariance ./internal/register/
	go test -run '^$' -fuzz '^FuzzRegister$' -fuzztime 10s -fuzzminimizetime 1x ./internal/register
	go test -run '^$' -fuzz '^FuzzWarpInto$' -fuzztime 10s ./internal/frame
}

run_fleet() {
	# The broadcast-fleet gate in isolation under the race detector: a
	# small-N fleet is the repo's richest cross-goroutine surface (nested
	# fan-out, one shared pool, one display read by every receiver), and
	# its tests pin worker invariance, the render-once pool accounting,
	# the concurrency-budget bit-identity and the late-start all-erasure
	# path.
	go test -race -count=1 ./internal/fleet/
}

run_goldens() {
	# The paper's tables as code: every inframe-bench experiment group is
	# rerun at the command's defaults and compared byte for byte with
	# cmd/inframe-bench/testdata/*.golden, wall-time lines stripped (~2 min
	# on two cores). Uninstrumented: the test skips under -race, where it
	# would take minutes more and add nothing the worker-invariance tests
	# do not already race.
	go test -count=1 -run '^TestGoldenTables$' ./cmd/inframe-bench/
}

run_bench_smoke() {
	go test -run '^$' -bench 'EndToEnd|DecodeCaptures|Fleet' -benchtime=1x .
}

run_benchdiff() {
	go run ./cmd/inframe-benchdiff -tolerance 0.15
}

stage "gofmt" check_gofmt
stage "go vet ./..." go vet ./...
stage "go build ./..." go build ./...
stage "inframe-lint ./..." run_lint
stage "cmd/inframe-perf vet + short tests" run_perf_module
stage "arm64 build FMA-free" run_arm64_fma
stage "go test -race $short ./..." run_tests
stage "internal/analysis coverage floor" run_analysis_cover
stage "internal/register coverage floor" run_register_cover
stage "steady-state alloc tests" run_alloc_tests
stage "fixed-point kernel identity (race)" run_kernels
if [[ -n "$short" ]]; then
	skip "robustness matrix + fuzz smoke"
	skip "pose robustness (race)"
	skip "fleet determinism (race)"
	skip "experiment goldens"
	skip "benchmarks (1 iteration smoke)"
	skip "inframe-benchdiff"
else
	stage "robustness matrix + fuzz smoke" run_robustness
	stage "pose robustness (race)" run_pose
	stage "fleet determinism (race)" run_fleet
	stage "experiment goldens" run_goldens
	stage "benchmarks (1 iteration smoke)" run_bench_smoke
	stage "inframe-benchdiff" run_benchdiff
fi

echo "== stage timings =="
for t in "${timings[@]}"; do
	echo "$t"
done
echo "verify: OK"
