package main

import (
	"slices"
	"time"
)

// The host is a small VM on a shared machine, and what its neighbours do
// to the shared caches and memory decides how fast it runs: for seconds
// to minutes at a time the same relational work takes 1.2 to 1.4 times
// as long (bench/README.md has the measurements). A run that falls into a
// slow spell reads 30 % worse than one that does not, and no statistic
// over the run's own samples can tell a slow host from a slow program. So
// the untraced run measures the host beside the program: between slices
// of the timed phase it times a fixed yardstick (below), and every
// duration measured in a slice is scaled to what it would have been on a
// host that runs the yardstick in yardstickRef. A change to the program
// moves the program's numbers and leaves the yardstick's alone — the
// yardstick calls nothing in the program; a change of host speed moves
// both and cancels.

// yardstickRef is the reference speed: a reading's usual value between
// slices on the host the benchmark was defined on, so scaled and raw
// values agree when that host is in its usual state.
const yardstickRef = 3300 * time.Microsecond

// sliceLen is how much of the timed phase runs between two readings of
// the yardstick.
const sliceLen = 250 * time.Millisecond

const (
	yardstickKeys   = 1 << 14
	yardstickFar    = 1 << 22 // × 4 bytes: does not fit the second-level cache
	yardstickRows   = 1 << 15
	yardstickGroups = 1 << 12
)

type yardstick struct {
	keys   []uint64
	far    []uint32
	rows   []yardstickRow
	groups []uint32
	sink   uint64
}

type yardstickRow struct{ group, value uint32 }

func newYardstick() *yardstick {
	y := &yardstick{
		keys: make([]uint64, yardstickKeys), far: make([]uint32, yardstickFar),
		rows: make([]yardstickRow, yardstickRows), groups: make([]uint32, yardstickGroups),
	}
	for i := range y.far {
		y.far[i] = uint32(i)
	}
	y.generate()
	for i := range y.rows {
		y.rows[i] = yardstickRow{uint32(y.keys[i%yardstickKeys] % yardstickGroups), uint32(i)}
	}
	y.once()
	return y
}

func (y *yardstick) generate() {
	x := uint64(88172645463325252)
	for i := range y.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		y.keys[i] = x
	}
}

// once does the fixed work — what the relational kernels of the program
// under test do: sort keys, fetch from a table too large for the near
// caches in an order the data decides, and aggregate rows by group —
// without allocating, and returns how long it took. The three parts are
// the ones a slow spell of this host slows as much as it slows the
// program (1.2× to 1.4×; pure arithmetic barely notices it, so a
// yardstick made of that would under-correct).
func (y *yardstick) once() time.Duration {
	t0 := time.Now()
	y.generate()
	slices.Sort(y.keys)
	var acc uint32
	for shift := 0; shift < 36; shift += 3 {
		for _, k := range y.keys {
			acc += y.far[(k>>shift)%yardstickFar]
		}
	}
	for round := 0; round < 32; round++ {
		for _, r := range y.rows {
			y.groups[r.group] += r.value
		}
	}
	y.sink += uint64(acc) + y.keys[0] + uint64(y.groups[7])
	return time.Since(t0)
}

// read is one reading: the median of three passes, so a pass that was
// interrupted does not count.
func (y *yardstick) read() time.Duration {
	d := []time.Duration{y.once(), y.once(), y.once()}
	slices.Sort(d)
	return d[1]
}

// hostFactor turns the readings taken before and after a stretch of work
// into the factor that scales the stretch's durations to the reference
// speed: below 1 when the host was slow.
func hostFactor(before, after time.Duration) float64 {
	return 2 * float64(yardstickRef) / float64(before+after)
}
