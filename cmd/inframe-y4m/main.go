// Command inframe-y4m bridges InFrame and standard video tooling through
// the YUV4MPEG2 format: "render" produces a multiplexed color .y4m any
// player can show at 120 FPS; "decode" recovers the embedded message from a
// .y4m capture (e.g. re-exported camera footage).
//
// Usage:
//
//	inframe-y4m render -out multiplexed.y4m [-message "hi"] [-video colorsunrise]
//	inframe-y4m decode -in multiplexed.y4m
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"inframe"
	"inframe/internal/core"
	"inframe/internal/frame"
	"inframe/internal/video"
	"inframe/internal/y4m"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "render":
		render(os.Args[2:])
	case "decode":
		decode(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: inframe-y4m render|decode [flags]")
	os.Exit(2)
}

func render(args []string) {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	out := fs.String("out", "multiplexed.y4m", "output .y4m path")
	message := fs.String("message", "hello from a .y4m file", "message to embed")
	videoName := fs.String("video", "colorsunrise", "content: colorsunrise, gray, textcard")
	scale := fs.Int("scale", 2, "paper-geometry divisor")
	tau := fs.Int("tau", 12, "smoothing cycle")
	cycles := fs.Int("cycles", 16, "message repetitions")
	seed := fs.Int64("seed", 1, "random seed")
	parity := fs.Int("parity", 0, "RS parity bytes per frame (0 = default ~25%; raise for saturated/moving content)")
	fs.Parse(args)

	l, err := inframe.ScaledPaperLayout(*scale)
	fatalIf(err)
	p := inframe.DefaultParams(l)
	p.Tau = *tau
	parityBytes := *parity
	if parityBytes == 0 {
		parityBytes = l.DataBitsPerFrame() / 8 / 4
	}

	var src video.RGBSource
	switch *videoName {
	case "colorsunrise":
		src = video.NewColorSunRise(l.FrameW, l.FrameH, *seed)
	case "gray":
		src = video.Colorize{Src: video.Gray(l.FrameW, l.FrameH)}
	case "textcard":
		src = video.Colorize{Src: video.NewTextCard(l.FrameW, l.FrameH, *seed)}
	default:
		fatalIf(fmt.Errorf("unknown video %q", *videoName))
	}

	// Build the data stream the way the facade Transmitter does, but render
	// in color.
	tx, err := inframe.NewTransmitterParity(p, video.Luma{Src: src}, []byte(*message), parityBytes)
	fatalIf(err)
	cm, err := core.NewRGBMultiplexer(p, src, tx.Stream())
	fatalIf(err)

	fh, err := os.Create(*out)
	fatalIf(err)
	defer fh.Close()
	wr, err := y4m.NewWriter(fh, y4m.Header{
		W: l.FrameW, H: l.FrameH, FPSNum: 120, FPSDen: 1, ColorSpace: y4m.C420,
	})
	fatalIf(err)
	n := *cycles * tx.DisplayFramesPerCycle()
	// Each frame is written before the next renders, so one frame serves
	// them all.
	f := frame.NewRGB(l.FrameW, l.FrameH)
	for k := 0; k < n; k++ {
		cm.FrameRGBInto(k, f)
		fatalIf(wr.WriteFrame(f))
	}
	fatalIf(wr.Flush())
	fatalIf(fh.Close())
	fmt.Printf("wrote %d color frames (%d packets × %d cycles) to %s\n",
		n, tx.Packets(), *cycles, *out)
}

func decode(args []string) {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	in := fs.String("in", "multiplexed.y4m", "input .y4m path")
	scale := fs.Int("scale", 2, "paper-geometry divisor")
	tau := fs.Int("tau", 12, "smoothing cycle")
	parity := fs.Int("parity", 0, "RS parity bytes per frame (must match render)")
	fs.Parse(args)

	l, err := inframe.ScaledPaperLayout(*scale)
	fatalIf(err)
	p := inframe.DefaultParams(l)
	p.Tau = *tau
	parityBytes := *parity
	if parityBytes == 0 {
		parityBytes = l.DataBitsPerFrame() / 8 / 4
	}

	fh, err := os.Open(*in)
	fatalIf(err)
	defer fh.Close()
	rd, err := y4m.NewReader(fh)
	fatalIf(err)
	if rd.Header.W != l.FrameW || rd.Header.H != l.FrameH {
		fatalIf(fmt.Errorf("stream is %dx%d, layout expects %dx%d",
			rd.Header.W, rd.Header.H, l.FrameW, l.FrameH))
	}
	var caps []*frame.Frame
	var times []float64
	fps := rd.Header.FPS()
	for i := 0; ; i++ {
		y, _, _, err := rd.ReadFrameYCbCr()
		if errors.Is(err, y4m.ErrNoMoreFrames) {
			break
		}
		fatalIf(err)
		caps = append(caps, y)
		times = append(times, float64(i)/fps)
	}
	if len(caps) == 0 {
		fatalIf(fmt.Errorf("no frames in %s", *in))
	}
	rcfg := inframe.DefaultReceiverConfig(p, l.FrameW, l.FrameH)
	rx, err := inframe.NewMessageReceiverParity(rcfg, parityBytes)
	fatalIf(err)
	nData := int(times[len(times)-1] / (float64(*tau) / 120))
	rx.Ingest(&inframe.ChannelResult{Captures: caps, Times: times, Exposure: 1 / fps}, nData)
	if !rx.Complete() {
		fatalIf(fmt.Errorf("message incomplete; missing packets %v", rx.Missing()))
	}
	msg, err := rx.Message()
	fatalIf(err)
	fmt.Printf("decoded %d bytes: %q\n", len(msg), msg)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "inframe-y4m:", err)
		os.Exit(1)
	}
}
