package core

import (
	"fmt"
	"math/rand"

	"inframe/internal/code/parity"
)

// DataFrame holds one bit per Block, row-major (by·BlocksX + bx). Parity
// Blocks are stored explicitly; Encode-side helpers fill them.
type DataFrame struct {
	Layout Layout
	Bits   []bool
}

// NewDataFrame returns an all-zero data frame for the layout.
func NewDataFrame(l Layout) *DataFrame {
	return &DataFrame{Layout: l, Bits: make([]bool, l.NumBlocks())}
}

// Bit returns the bit of Block (bx, by).
func (df *DataFrame) Bit(bx, by int) bool { return df.Bits[by*df.Layout.BlocksX+bx] }

// SetBit assigns the bit of Block (bx, by).
func (df *DataFrame) SetBit(bx, by int, v bool) { df.Bits[by*df.Layout.BlocksX+bx] = v }

// Clone returns a deep copy.
func (df *DataFrame) Clone() *DataFrame {
	out := NewDataFrame(df.Layout)
	copy(out.Bits, df.Bits)
	return out
}

// Equal reports whether two data frames carry identical bits.
func (df *DataFrame) Equal(other *DataFrame) bool {
	if df.Layout != other.Layout || len(df.Bits) != len(other.Bits) {
		return false
	}
	for i, b := range df.Bits {
		if other.Bits[i] != b {
			return false
		}
	}
	return true
}

// FromDataBits builds a data frame from payload bits, filling each GOB with
// m²−1 data bits and one XOR parity bit (the paper's 2×2 scheme, where the
// fourth Block is the parity of the other three). GOBs are filled row-major;
// bits must supply exactly DataBitsPerFrame() values.
func FromDataBits(l Layout, bits []bool) (*DataFrame, error) {
	if len(bits) != l.DataBitsPerFrame() {
		return nil, fmt.Errorf("core: got %d data bits, layout carries %d", len(bits), l.DataBitsPerFrame())
	}
	df := NewDataFrame(l)
	idx := 0
	per := l.BlocksPerGOB() - 1
	gobsX, gobsY := l.GOBsX(), l.GOBsY()
	for gy := 0; gy < gobsY; gy++ {
		for gx := 0; gx < gobsX; gx++ {
			group := parity.Encode(bits[idx : idx+per])
			idx += per
			for i, blk := range l.GOBBlocks(gx, gy) {
				df.SetBit(blk[0], blk[1], group[i])
			}
		}
	}
	return df, nil
}

// DataBits extracts the payload bits (excluding parity Blocks) in the same
// order FromDataBits consumes them.
func (df *DataFrame) DataBits() []bool {
	l := df.Layout
	out := make([]bool, 0, l.DataBitsPerFrame())
	per := l.BlocksPerGOB() - 1
	gobsX, gobsY := l.GOBsX(), l.GOBsY()
	for gy := 0; gy < gobsY; gy++ {
		for gx := 0; gx < gobsX; gx++ {
			blocks := l.GOBBlocks(gx, gy)
			for i := 0; i < per; i++ {
				out = append(out, df.Bit(blocks[i][0], blocks[i][1]))
			}
		}
	}
	return out
}

// ParityOK reports whether GOB (gx, gy) satisfies its XOR parity — the
// parity.Check relation over the GOB's Blocks in GOBBlocks order, walked in
// place: it runs on every available GOB of every decoded frame, so it
// allocates nothing. A GOB of one Block carries no parity and never passes.
func (df *DataFrame) ParityOK(gx, gy int) bool {
	l := df.Layout
	l.checkGOB(gx, gy)
	per := l.BlocksPerGOB()
	if per < 2 {
		return false
	}
	odd := false
	for i := 0; i < per; i++ {
		odd = odd != df.Bits[l.gobBlock(gx, gy, i)]
	}
	return !odd
}

// Stream supplies the data frame sequence to the multiplexer.
type Stream interface {
	// DataFrame returns the i-th data frame (i ≥ 0). Frames may repeat.
	DataFrame(i int) *DataFrame
}

// RandomStream generates pseudo-random payload frames from a fixed seed —
// the paper's "pseudo-random data generator with a pre-set seed".
type RandomStream struct {
	Layout Layout
	Seed   int64
	cache  map[int]*DataFrame
}

// NewRandomStream returns a deterministic random payload stream.
func NewRandomStream(l Layout, seed int64) *RandomStream {
	return &RandomStream{Layout: l, Seed: seed, cache: make(map[int]*DataFrame)}
}

// DataFrame implements Stream. Frames are cached so the transmitter and an
// oracle receiver observe identical payloads.
func (rs *RandomStream) DataFrame(i int) *DataFrame {
	if df, ok := rs.cache[i]; ok {
		return df
	}
	rng := rand.New(rand.NewSource(rs.Seed + int64(i)*7919))
	bits := make([]bool, rs.Layout.DataBitsPerFrame())
	for j := range bits {
		bits[j] = rng.Intn(2) == 1
	}
	df, err := FromDataBits(rs.Layout, bits)
	if err != nil {
		panic(err) // impossible: bits sized from the same layout
	}
	rs.cache[i] = df
	return df
}

// FixedStream repeats a fixed cycle of data frames.
type FixedStream struct{ Frames []*DataFrame }

// DataFrame implements Stream, cycling through the fixed frames.
func (fs *FixedStream) DataFrame(i int) *DataFrame {
	if len(fs.Frames) == 0 {
		panic("core: FixedStream has no frames")
	}
	n := len(fs.Frames)
	return fs.Frames[((i%n)+n)%n]
}

// BitsStream packs an arbitrary bit sequence into successive data frames,
// zero-padding the tail. It is the bridge from the link layer (§3.3's
// "further framing optimizations") to the physical data frames.
type BitsStream struct {
	Layout Layout
	Bits   []bool
}

// NumFrames returns how many data frames the bit sequence occupies.
func (bs *BitsStream) NumFrames() int {
	per := bs.Layout.DataBitsPerFrame()
	if len(bs.Bits) == 0 {
		return 0
	}
	return (len(bs.Bits) + per - 1) / per
}

// DataFrame implements Stream: frame i carries bits [i·per, (i+1)·per),
// zero-padded; frames beyond the payload are all zero.
func (bs *BitsStream) DataFrame(i int) *DataFrame {
	per := bs.Layout.DataBitsPerFrame()
	chunk := make([]bool, per)
	start := i * per
	for j := 0; j < per; j++ {
		if idx := start + j; idx >= 0 && idx < len(bs.Bits) {
			chunk[j] = bs.Bits[idx]
		}
	}
	df, err := FromDataBits(bs.Layout, chunk)
	if err != nil {
		panic(err) // impossible: chunk sized from the same layout
	}
	return df
}
