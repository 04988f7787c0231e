// Ad coupon: the paper's §5 motivating application — an advertisement plays
// on screen while a coupon link rides the secondary channel; a viewer's
// phone camera picks up the link without any barcode cluttering the ad.
//
//	go run ./examples/adcoupon
//
// The ad is a text-card scene (banner + copy lines); the coupon URL is
// embedded full-frame and recovered through the simulated camera. The
// example also reports what a corner QR code would have cost in screen
// area for comparable capacity.
package main

import (
	"fmt"
	"log"

	"inframe"
	"inframe/internal/barcode"
)

func main() {
	layout, err := inframe.ScaledPaperLayout(2)
	if err != nil {
		log.Fatal(err)
	}
	coupon := "https://example.com/coupon?campaign=sunrise&code=HOTNETS-14&discount=25%25"

	// The primary channel: an announcement card the viewer reads.
	ad := inframe.TextCardVideo(layout.FrameW, layout.FrameH, 7)

	params := inframe.DefaultParams(layout)
	tx, err := inframe.NewTransmitter(params, ad, []byte(coupon))
	if err != nil {
		log.Fatal(err)
	}

	cfg := inframe.DefaultChannelConfig(640, 360)
	cfg.Camera.BlurRadius = 0
	nDisplay := 16 * tx.DisplayFramesPerCycle()
	result, err := inframe.Simulate(tx.Multiplexer(), nDisplay, cfg)
	if err != nil {
		log.Fatal(err)
	}

	rx, err := inframe.NewMessageReceiver(cfg.Receiver(params))
	if err != nil {
		log.Fatal(err)
	}
	rx.Ingest(result, nDisplay/params.Tau)
	if !rx.Complete() {
		log.Fatalf("coupon incomplete; missing %v — point the camera a little longer", rx.Missing())
	}
	got, err := rx.Message()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("viewer sees: the advertisement, full frame, unmodified to the eye\n")
	fmt.Printf("camera sees: %q\n", got)

	// What the conventional design would have cost.
	qr := barcode.DefaultConfig(layout.FrameW, layout.FrameH)
	fmt.Printf("\nconventional corner barcode for comparison:\n")
	fmt.Printf("  screen area surrendered: %.1f%%\n", 100*qr.AreaFraction(layout.FrameW, layout.FrameH))
	fmt.Printf("  raw rate at 120 Hz:      %.2f kbps (visible, distracting)\n", qr.RawBps(120)/1000)
	fmt.Printf("  InFrame secondary rate:  %.2f kbps (invisible, full frame)\n",
		float64(layout.DataBitsPerFrame())*120/float64(params.Tau)/1000)
}
