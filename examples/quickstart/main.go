// Quickstart: send a text message over the InFrame dual-mode channel and
// receive it with the simulated rolling-shutter camera.
//
//	go run ./examples/quickstart
//
// The walkthrough mirrors the paper's Fig. 1: the viewer sees ordinary gray
// video; the camera sees data.
package main

import (
	"fmt"
	"log"

	"inframe"
)

func main() {
	// 1. Geometry: the paper's 50×30-Block layout at half scale
	//    (960×540 display, 640×360 camera).
	layout, err := inframe.ScaledPaperLayout(2)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Transmitter: paper parameters (δ=20, τ=12) over pure gray video.
	params := inframe.DefaultParams(layout)
	video := inframe.GrayVideo(layout.FrameW, layout.FrameH)
	tx, err := inframe.NewTransmitter(params, video, []byte("Hello from the full frame!"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("message occupies %d data frame(s); each data frame carries %d payload bits\n",
		tx.Packets(), layout.DataBitsPerFrame())

	// 3. Channel: 120 Hz display into a 30 FPS rolling-shutter camera.
	cfg := inframe.DefaultChannelConfig(640, 360)
	cfg.Camera.BlurRadius = 0 // sub-pixel at half scale
	nDisplay := 16 * tx.DisplayFramesPerCycle()
	result, err := inframe.Simulate(tx.Multiplexer(), nDisplay, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("displayed %d frames (%.1f s), captured %d camera frames\n",
		nDisplay, float64(nDisplay)/cfg.Display.RefreshHz, len(result.Captures))

	// 4. Receiver: the one matched to the link (its camera's size and
	//    timing) decodes the captures and reassembles the message.
	rx, err := inframe.NewMessageReceiver(cfg.Receiver(params))
	if err != nil {
		log.Fatal(err)
	}
	rx.Ingest(result, nDisplay/params.Tau)
	if !rx.Complete() {
		log.Fatalf("message incomplete; missing packets %v", rx.Missing())
	}
	msg, err := rx.Message()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("received: %q\n", msg)
}
