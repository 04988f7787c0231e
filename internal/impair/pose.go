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
		f*r00 + cx*r20, f*r01 + cx*r21, cx * fd,
		f*r10 + cy*r20, f*r11 + cy*r21, cy * fd,
		r20, r21, fd,
	}}
	return centered.Mul(frame.AxisAlignedHomography(1, 1, -cx, -cy))
}

// poseScratch recycles the camera-pose stage's warp source plane across
// the captures of every Stack in the process, as the receiver's integer
// scratch is shared (core's intScratch): a channel.Simulate builds a new
// Stack per call and runs two posed captures at once, so a per-Stack pool
// would allocate a fresh clone plane per concurrent capture of every run.
// Scratch only — pixel contents never survive a capture — so sync.Pool's
// scheduling-dependent reuse cannot affect outputs.
var poseScratch sync.Pool

// applyPose warps one capture through the (possibly jittered) camera pose.
// The jitter stream is keyed by (Seed, ImpairPose, capture index), so
// whether and how capture i shakes never depends on any other capture or on
// worker identity. A fixed pose warps through the Stack's plan, which is
// WarpInto through the same inverse bit for bit; a jittered pose is a new
// map per capture and warps directly.
func (s *Stack) applyPose(f *frame.Frame, index int) {
	src, _ := poseScratch.Get().(*frame.Frame)
	if src == nil || src.W != f.W || src.H != f.H {
		src = frame.New(f.W, f.H)
	}
	f.CloneInto(src)
	if s.cfg.PoseJitterDeg > 0 {
		rng := s.rng(detrng.ImpairPose, index)
		tilt := s.cfg.TiltDeg + (2*rng.Float64()-1)*s.cfg.PoseJitterDeg
		roll := s.cfg.RotateDeg + (2*rng.Float64()-1)*s.cfg.PoseJitterDeg
		frame.WarpInto(src, f, poseInverse(f.W, f.H, tilt, roll, s.cfg.Distance))
	} else {
		s.posePlanFor(f.W, f.H).Into(src, f)
	}
	poseScratch.Put(src)
}

// posePlanFor returns the Stack's warp plan of its fixed pose for w×h
// captures, building it on first use and again whenever the capture size
// changes. The mutex makes concurrent first captures build it once; the
// plan itself is read-only, so callers gather through it outside the lock.
func (s *Stack) posePlanFor(w, h int) *frame.WarpPlan {
	s.poseMu.Lock()
	defer s.poseMu.Unlock()
	if s.posePlan == nil || !s.posePlan.Fits(w, h, w, h) {
		s.posePlan = frame.NewWarpPlan(poseInverse(w, h, s.cfg.TiltDeg, s.cfg.RotateDeg, s.cfg.Distance), w, h, w, h)
	}
	return s.posePlan
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
