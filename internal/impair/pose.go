package impair

import (
	"fmt"
	"math"
	"sync"

	"inframe/internal/detrng"
	"inframe/internal/frame"
)

// poseFocal sets the pinhole focal length as a multiple of the larger
// capture dimension: a moderate telephoto, long enough that the projection
// denominator stays strictly positive over the whole validated pose range
// (see PoseHomography) while still producing a visible keystone at 20° tilt.
const poseFocal = 1.5

// PoseHomography returns the homography a pinhole camera at the given pose
// applies to a frontal w×h capture: frontal coordinates map to posed
// (keystoned, rolled, rescaled) coordinates. The model puts the screen
// plane at z = 0 centered on the optical axis, rotates it by
// R = Rx(tilt)·Rz(roll), and projects through a pinhole at distance
// f·dist with focal length f = poseFocal·max(w, h):
//
//	x' = f·p'x/(f·dist + p'z) + cx   (and likewise y')
//
// dist ≤ 0 means the nominal distance 1, where the zero pose is the exact
// identity map. Positivity of the denominator over the validated range
// (|tilt| ≤ 70°+5° jitter, dist ≥ 0.5): |p'z| ≤ sin(75°)·hypot(w, h)/2
// ≤ 0.966·(√2/2)·max ≈ 0.683·max, while f·dist ≥ 1.5·0.5·max = 0.75·max,
// so every screen point stays strictly in front of the pinhole and the
// homography is invertible by construction.
func PoseHomography(w, h int, tiltDeg, rollDeg, dist float64) frame.Homography {
	if dist <= 0 {
		dist = 1
	}
	f := poseFocal * float64(max(w, h))
	cx := float64(w-1) / 2
	cy := float64(h-1) / 2
	st, ct := math.Sincos(tiltDeg * math.Pi / 180)
	sr, cr := math.Sincos(rollDeg * math.Pi / 180)
	// R = Rx(tilt)·Rz(roll) applied to (u, v, 0): the screen plane has no
	// z-extent, so only the first two columns of R matter.
	r00, r01 := cr, -sr
	r10, r11 := ct*sr, ct*cr
	r20, r21 := st*sr, st*cr
	fd := f * dist
	// Projection as a homography on centered coordinates, composed with the
	// shift into pixel coordinates: x' = (f·p'x + cx·(f·d + p'z))/(f·d + p'z).
	centered := frame.Homography{M: [9]float64{
		float64(f*r00) + float64(cx*r20), float64(f*r01) + float64(cx*r21), cx * fd,
		float64(f*r10) + float64(cy*r20), float64(f*r11) + float64(cy*r21), cy * fd,
		r20, r21, fd,
	}}
	return centered.Mul(frame.AxisAlignedHomography(1, 1, -cx, -cy))
}

// applyPose warps one capture through the (possibly jittered) camera pose,
// in place: the warp gathers an integral capture from its own 8-bit copy
// (frame.WarpInto), so it may write over the capture, and a non-integral
// one is copied before its float warp. With round the warp writes the
// 8-bit codes ApplyFrame's re-quantize would (frame.WarpInto8), so the
// caller skips that pass. The jitter stream is keyed by (Seed, ImpairPose,
// capture index), so whether and how capture i shakes never depends on any
// other capture or on worker identity. A fixed pose warps through a
// memoized plan (posePlanFor), which is WarpInto through the same inverse
// bit for bit; a jittered pose is a new map per capture and warps directly.
func (s *Stack) applyPose(f *frame.Frame, index int, round bool) {
	if s.cfg.PoseJitterDeg > 0 {
		tilt, roll := s.jitteredPose(index)
		inv := poseInverse(f.W, f.H, tilt, roll, s.cfg.Distance)
		if round {
			frame.WarpInto8(f, f, inv)
		} else {
			frame.WarpInto(f, f, inv)
		}
		return
	}
	plan := s.posePlanFor(f.W, f.H)
	if round {
		plan.Into8(f, f)
	} else {
		plan.Into(f, f)
	}
}

// jitteredPose returns capture index's tilt and roll under PoseJitterDeg:
// the configured pose plus two uniform draws of the capture's own stream.
func (s *Stack) jitteredPose(index int) (tilt, roll float64) {
	rng := detrng.NewStream(detrng.Mix(s.cfg.Seed, detrng.ImpairPose, index))
	tilt = s.cfg.TiltDeg + float64((2*rng.Float64()-1)*s.cfg.PoseJitterDeg)
	roll = s.cfg.RotateDeg + float64((2*rng.Float64()-1)*s.cfg.PoseJitterDeg)
	rng.Release()
	return tilt, roll
}

// poseKey identifies a fixed-pose warp plan: the capture size and the
// bits of the pose's tilt, roll and distance.
type poseKey struct {
	w, h             int
	tilt, roll, dist uint64
}

// poseMemo holds the last fixed-pose warp plan built, for every Stack. A
// plan depends only on its key and costs 8 bytes per capture pixel (7.4 MB
// and a few milliseconds at 1280×720), while channel.NewSchedule builds a
// new Stack for every Simulate, so an episode loop over one configuration
// builds the plan once instead of once per episode. Gathers only read a
// plan, so concurrent captures share it outside the lock; mu guards the
// entry. Stacks that alternate between poses or sizes rebuild on every
// switch: correct, only slower.
var poseMemo struct {
	mu   sync.Mutex
	key  poseKey
	plan *frame.WarpPlan
}

// posePlanFor returns the warp plan of the Stack's fixed pose for w×h
// captures: the memo's when it was built for the same size and pose, else a
// new one, which replaces it.
func (s *Stack) posePlanFor(w, h int) *frame.WarpPlan {
	key := poseKey{w, h, math.Float64bits(s.cfg.TiltDeg), math.Float64bits(s.cfg.RotateDeg), math.Float64bits(s.cfg.Distance)}
	poseMemo.mu.Lock()
	defer poseMemo.mu.Unlock()
	if poseMemo.plan == nil || poseMemo.key != key {
		poseMemo.key = key
		poseMemo.plan = frame.NewWarpPlan(poseInverse(w, h, s.cfg.TiltDeg, s.cfg.RotateDeg, s.cfg.Distance), w, h, w, h)
	}
	return poseMemo.plan
}

// poseInverse is the capture→frontal map of a w×h capture at the given
// pose: WarpInto's map goes destination→source, so the posed capture
// samples the frontal plane through the pose's inverse.
func poseInverse(w, h int, tiltDeg, rollDeg, dist float64) frame.Homography {
	inv, err := PoseHomography(w, h, tiltDeg, rollDeg, dist).Invert()
	if err != nil {
		// Validate's pose bounds make the projection invertible by
		// construction (see PoseHomography); reaching this is a plumbing bug,
		// not a data condition.
		panic(fmt.Sprintf("impair: pose homography not invertible: %v", err))
	}
	return inv
}
