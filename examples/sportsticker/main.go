// Sports ticker: the paper's live-streaming application — commentary
// updates ride the secondary channel under moving video content, and a
// camera that joins mid-broadcast still reassembles each update thanks to
// cyclic retransmission and sequence numbers.
//
//	go run ./examples/sportsticker
package main

import (
	"fmt"
	"log"

	"inframe"
)

func main() {
	layout, err := inframe.ScaledPaperLayout(2)
	if err != nil {
		log.Fatal(err)
	}
	// Moving content: wide, low-contrast drifting bands stand in for a slow
	// camera pan over a pitch. Moving edges cost the secondary channel
	// capacity — the lower the contrast of the motion, the less the
	// Reed–Solomon parity has to absorb.
	feed := inframe.MovingBarsVideo(layout.FrameW, layout.FrameH, 12*layout.BlockPx(), 0.75)
	feed.Lo, feed.Hi = 115, 150

	updates := []string{
		"GOAL! 1-0, 23' — header from the corner",
		"Yellow card, 31' — late challenge in midfield",
		"Half time: 1-0; shots 7-2, possession 58%",
	}

	params := inframe.DefaultParams(layout)
	cfg := inframe.DefaultChannelConfig(640, 360)
	cfg.Camera.BlurRadius = 0
	// Motion-heavy content loses the Blocks a passing edge touches, so the
	// ticker spends more than half its frame on Reed–Solomon parity.
	const parityBytes = 80

	for i, update := range updates {
		tx, err := inframe.NewTransmitterParity(params, feed, []byte(update), parityBytes)
		if err != nil {
			log.Fatal(err)
		}
		nDisplay := 16 * tx.DisplayFramesPerCycle()
		result, err := inframe.Simulate(tx.Multiplexer(), nDisplay, cfg)
		if err != nil {
			log.Fatal(err)
		}
		// A viewer joining now: a fresh receiver per update.
		rx, err := inframe.NewMessageReceiverParity(cfg.Receiver(params), parityBytes)
		if err != nil {
			log.Fatal(err)
		}
		accepted := rx.Ingest(result, nDisplay/params.Tau)
		status := "incomplete"
		var text []byte
		if rx.Complete() {
			text, err = rx.Message()
			if err != nil {
				log.Fatal(err)
			}
			status = "ok"
		}
		fmt.Printf("update %d: %d packets accepted, %s\n", i+1, accepted, status)
		if status == "ok" {
			fmt.Printf("  ticker: %s\n", text)
		} else {
			fmt.Printf("  missing packets: %v (keep watching)\n", rx.Missing())
		}
	}
}
