package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending sample: the value at rank ⌈p/100 · n⌉.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(len(sorted), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// rankOf is the nearest rank ⌈p·n/100⌉. Multiplying first keeps whole
// percentiles of round sample counts exact (99·1000/100 is 990, while
// 0.99·1000 is not).
func rankOf(n int, p float64) int {
	return int(math.Ceil(p * float64(n) / 100))
}

// samplesBeyond is how many samples lie strictly above the nearest-rank
// p-th percentile's rank.
func samplesBeyond(n int, p float64) int {
	return n - min(rankOf(n, p), n)
}

// tailPercentile picks the highest of the candidate percentiles that
// still has at least ten samples beyond it, so a reported tail is never
// one or two outliers. With fewer than twenty samples even the median
// fails the rule and 50 is returned with ok=false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range []float64{99, 98, 95, 90, 75, 50} {
		if samplesBeyond(n, c) >= 10 {
			return c, true
		}
	}
	return 50, false
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// trimmedMean is the mean of xs without its lowest and highest
// ⌊trim·n⌋ values.
func trimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(trim * float64(len(s)))
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// clockTick is the kernel's USER_HZ: the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 100

// procCPU is another process's user+system CPU time, from
// /proc/<pid>/stat (fields 14 and 15, counted after the parenthesised
// command name, which may itself contain spaces).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(data)
	close := strings.LastIndexByte(s, ')')
	if close < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	fields := strings.Fields(s[close+1:])
	// fields[0] is field 3 (state), so utime/stime are fields[11], [12].
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(fields))
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields %q %q", pid, fields[11], fields[12])
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procStatusKB reads one kB-valued line (VmHWM, VmRSS) of
// /proc/<pid>/status; pid 0 means this process.
func procStatusKB(pid int, key string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			break
		}
		return strconv.ParseFloat(fields[0], 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// resetPeakRSS restarts a process's VmHWM at its current RSS (writing 5
// to clear_refs, Linux 4.0+). Best effort: where it is not permitted the
// peak simply includes set-up.
func resetPeakRSS(pid int) {
	path := "/proc/self/clear_refs"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	_ = os.WriteFile(path, []byte("5"), 0)
}
