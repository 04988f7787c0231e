package display

import (
	"fmt"
	"math"
	"testing"

	"inframe/internal/frame"
)

// refRowAverage is RowAverage as it was before its first settled interval
// stored its share in place of a clear pass, copied verbatim; only the
// receiver became a parameter.
func refRowAverage(d *Display, y int, t0, t1 float64, dst []float32) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.checkOpen()
	if len(d.drive) == 0 {
		panic("display: no frames pushed")
	}
	if t1 <= t0 {
		panic(fmt.Sprintf("display: empty window [%v,%v)", t0, t1))
	}
	if y < 0 || y >= d.h {
		panic(fmt.Sprintf("display: row %d out of range", y))
	}
	T := d.FrameDuration()
	if !(math.Abs(t0/T) < maxInterval && math.Abs(t1/T) < maxInterval) {
		panic(fmt.Sprintf("display: window [%v,%v) is not a finite span of refresh intervals", t0, t1))
	}
	w := d.w
	for x := 0; x < w; x++ {
		dst[x] = 0
	}
	k0 := int(math.Floor(t0 / T))
	k1 := int(math.Ceil(t1 / T))
	if k1 <= k0 {
		k1 = k0 + 1
	}
	total := t1 - t0
	if duty := d.cfg.StrobeDuty; duty > 0 && duty < 1 {
		// Strobed backlight: light only during the final duty fraction of
		// each interval, at target luminance scaled by 1/duty.
		boost := float32(1 / duty)
		for k := k0; k < k1; k++ {
			sOn := (float64(k) + 1 - duty) * T
			sOff := float64(k+1) * T
			a := math.Max(t0, sOn)
			b := math.Min(t1, sOff)
			if b <= a {
				continue
			}
			target := d.driveFrame(k)[y*w : y*w+w]
			wgt := float32((b-a)/total) * boost
			for x := 0; x < w; x++ {
				dst[x] += float32(d.lut[target[x]] * wgt)
			}
		}
		return
	}
	// The response-state chain is maintained at push time, so the read path
	// needs no mutation: state[k-base] exists for every pushed k ≥ base.
	useResp := d.cfg.ResponseTime > 0
	tauR := d.cfg.ResponseTime
	n := d.base + len(d.drive)
	for k := k0; k < k1; k++ {
		a := math.Max(t0, float64(k)*T)
		b := math.Min(t1, float64(k+1)*T)
		if b <= a {
			continue
		}
		target := d.driveFrame(k)[y*w : y*w+w]
		if !useResp || k < 0 || k >= n {
			// Settled (held) frame or ideal pixels: constant luminance.
			wgt := float32((b - a) / total)
			for x := 0; x < w; x++ {
				dst[x] += float32(d.lut[target[x]] * wgt)
			}
			continue
		}
		// Exponential approach from the interval-start state:
		// ∫ target + (s−target)·e^{−(t−tk)/τ} dt over [a,b].
		tk := float64(float64(k) * T)
		ea := math.Exp(-(a - tk) / tauR)
		eb := math.Exp(-(b - tk) / tauR)
		cLin := float32((b - a) / total)
		cExp := float32(tauR * (ea - eb) / total)
		st := d.state[k-d.base].Pix[y*w : y*w+w]
		for x := 0; x < w; x++ {
			tg := d.lut[target[x]]
			dst[x] += float32(tg*cLin) + float32((st[x]-tg)*cExp)
		}
	}
}

// TestRowAverageMatchesReference pins RowAverage bit for bit against the
// clear-then-accumulate reference on an ideal, a strobed and a
// slow-response panel: windows inside one refresh interval, across two and
// three, aligned to interval edges, wholly before frame 0 and after the
// last frame and straddling either end, and one so thin that no interval
// overlaps it (its window ends round onto one interval edge). dst starts
// NaN-filled, with NaN past the panel width that must stay untouched, so
// a pixel the kernel never writes shows.
func TestRowAverageMatchesReference(t *testing.T) {
	const w, h, frames = 37, 3, 9
	modes := []struct {
		name string
		cfg  Config
	}{
		{"ideal", Config{RefreshHz: 120, Brightness: 1, Gamma: 2.2}},
		{"strobe", Config{RefreshHz: 120, Brightness: 0.8, Gamma: 2.2, StrobeDuty: 0.5}},
		{"response", DefaultConfig()},
	}
	for _, m := range modes {
		d := mustNew(t, m.cfg)
		for k := 0; k < frames; k++ {
			f := frame.New(w, h)
			for i := range f.Pix {
				f.Pix[i] = float32((53*k + 29*i) % 256)
			}
			if err := d.Push(f); err != nil {
				t.Fatal(err)
			}
		}
		T := d.FrameDuration()
		// thin is a window whose start rounds up onto the edge of interval
		// k, so interval k−1 is never visited and interval k's overlap
		// [kT, kT) is empty.
		thin := [2]float64{math.NaN(), math.NaN()}
		for k := 1; k < frames && math.IsNaN(thin[0]); k++ {
			edge := float64(k) * T
			if t0 := math.Nextafter(edge, 0); int(math.Floor(t0/T)) == k {
				thin = [2]float64{t0, edge}
			}
		}
		if math.IsNaN(thin[0]) {
			t.Fatalf("%s: no interval edge where a one-ulp window overlaps nothing", m.name)
		}
		windows := [][2]float64{
			{3.1 * T, 3.6 * T},                       // one interval
			{3.7 * T, 4.3 * T},                       // two
			{2.5 * T, 4.5 * T},                       // three
			{5 * T, 6 * T},                           // aligned to interval edges
			{-3 * T, -2.4 * T},                       // before frame 0
			{-0.4 * T, 0.3 * T},                      // straddling the start
			{(frames + 2) * T, (frames + 2.8) * T},   // after the last frame
			{(frames - 0.5) * T, (frames + 0.5) * T}, // straddling the end
			thin,
		}
		for _, win := range windows {
			for y := 0; y < h; y++ {
				got, want := make([]float32, w+3), make([]float32, w+3)
				for i := range got {
					got[i], want[i] = float32(math.NaN()), float32(math.NaN())
				}
				d.RowAverage(y, win[0], win[1], got)
				refRowAverage(d, y, win[0], win[1], want)
				for x := range got {
					if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
						t.Fatalf("%s window [%v,%v) row %d px %d: %v, reference %v", m.name, win[0], win[1], y, x, got[x], want[x])
					}
				}
			}
		}
	}
}
