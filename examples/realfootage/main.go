// Real footage: ingest a YUV4MPEG2 clip as the primary channel, multiplex a
// message onto it in color, export the multiplexed stream back to .y4m (for
// any standard player), and decode the message from that very file.
//
//	go run ./examples/realfootage
//
// The example synthesizes its own input clip first (the environment has no
// media files), which also demonstrates the export path; point `-in` at any
// real .y4m to use actual footage.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"inframe"
	"inframe/internal/core"
	"inframe/internal/frame"
	"inframe/internal/video"
	"inframe/internal/y4m"
)

func main() {
	in := flag.String("in", "", "input .y4m clip (synthesized if empty)")
	flag.Parse()

	layout, err := inframe.ScaledPaperLayout(4) // keep the demo snappy
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "inframe-footage")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	clipPath := *in
	if clipPath == "" {
		clipPath = filepath.Join(dir, "input.y4m")
		if err := synthesizeClip(clipPath, layout.FrameW, layout.FrameH); err != nil {
			log.Fatal(err)
		}
		fmt.Println("synthesized input clip:", clipPath)
	}

	clip, err := video.OpenY4M(clipPath)
	if err != nil {
		log.Fatal(err)
	}
	w, h := clip.Size()
	if w != layout.FrameW || h != layout.FrameH {
		log.Fatalf("clip is %dx%d; this demo layout needs %dx%d", w, h, layout.FrameW, layout.FrameH)
	}

	// Multiplex the message onto the footage, in color.
	msg := "subtitle track riding on real footage"
	params := inframe.DefaultParams(layout)
	params.Tau = 8
	// Footage with saturated regions (the sun, its halo) loses those GOBs
	// outright, so spend well over half the frame on Reed–Solomon parity.
	const parityBytes = 90
	tx, err := inframe.NewTransmitterParity(params, video.Luma{Src: clip}, []byte(msg), parityBytes)
	if err != nil {
		log.Fatal(err)
	}
	cm, err := core.NewRGBMultiplexer(params, clip, tx.Stream())
	if err != nil {
		log.Fatal(err)
	}

	outPath := filepath.Join(dir, "multiplexed.y4m")
	fh, err := os.Create(outPath)
	if err != nil {
		log.Fatal(err)
	}
	wr, err := y4m.NewWriter(fh, y4m.Header{
		W: layout.FrameW, H: layout.FrameH, FPSNum: 120, FPSDen: 1, ColorSpace: y4m.C420,
	})
	if err != nil {
		log.Fatal(err)
	}
	n := 16 * tx.DisplayFramesPerCycle()
	for k := 0; k < n; k++ {
		if err := wr.WriteFrame(cm.FrameRGB(k)); err != nil {
			log.Fatal(err)
		}
	}
	if err := wr.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d multiplexed color frames to %s (play with: mpv %s)\n", n, outPath, outPath)

	// Decode straight from the file's luma planes.
	rf, err := os.Open(outPath)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	rd, err := y4m.NewReader(rf)
	if err != nil {
		log.Fatal(err)
	}
	var caps []*frame.Frame
	var times []float64
	for i := 0; ; i++ {
		y, _, _, err := rd.ReadFrameYCbCr()
		if err != nil {
			break
		}
		caps = append(caps, y)
		times = append(times, float64(i)/120)
	}
	rcfg := inframe.DefaultReceiverConfig(params, layout.FrameW, layout.FrameH)
	rx, err := inframe.NewMessageReceiverParity(rcfg, parityBytes)
	if err != nil {
		log.Fatal(err)
	}
	rx.Ingest(&inframe.ChannelResult{Captures: caps, Times: times, Exposure: 1.0 / 120}, n/params.Tau)
	if !rx.Complete() {
		log.Fatalf("message incomplete; missing %v", rx.Missing())
	}
	got, err := rx.Message()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decoded from the .y4m: %q\n", got)
}

// synthesizeClip writes a short color clip standing in for real footage.
func synthesizeClip(path string, w, h int) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	wr, err := y4m.NewWriter(fh, y4m.Header{W: w, H: h, FPSNum: 30, FPSDen: 1, ColorSpace: y4m.C420})
	if err != nil {
		return err
	}
	src := video.NewColorSunRise(w, h, 3)
	for i := 0; i < 30; i++ {
		if err := wr.WriteFrame(src.FrameRGB(i)); err != nil {
			return err
		}
	}
	if err := wr.Flush(); err != nil {
		return err
	}
	return fh.Close()
}
