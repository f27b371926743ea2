// Package fault is the deterministic failpoint registry behind the
// repository's chaos testing: hot layers register named sites (relation
// kernels, exec task dispatch, the plan-compile path, the service solve
// path, the netsim ledger, faqd handlers) and, when a site is armed, a
// hit injects one of four behaviors — a typed error, a panic, a delay,
// or a context cancellation. Disarmed sites cost a single atomic pointer
// load, so production binaries pay nothing for the instrumentation.
//
// Arming is explicit and deterministic: test hooks (EnableSpec / Enable
// / Disable / Reset) or the FAQ_FAILPOINTS environment variable, parsed
// once at init. Triggers are counter-based per site — "fire always",
// "fire once", or "fire every k-th evaluation" — never clock- or
// randomness-driven, so a chaos run replays identically given the same
// hit order.
//
// Spec grammar (also the FAQ_FAILPOINTS value, entries ';'-separated):
//
//	<site>=<mode>[:<arg>][@<pred>]
//
//	mode: error | panic | delay | cancel
//	arg:  delay duration ("5ms") for delay; small integer for
//	      domain-specific sites (e.g. netsim round delay)
//	pred: always (default) | once | 1in<k>
//
// Sites fall into two call shapes. Error-capable sites call Hit(ctx),
// which returns a typed *InjectedError (mode error), panics with an
// *InjectedPanic (mode panic), sleeps respecting ctx (mode delay), or
// returns context.Canceled (mode cancel). Value-returning kernels with
// no error path call Inject(), where every failing mode panics — the
// service boundary recovers the panic into a typed internal error, which
// is exactly the containment contract the chaos suite asserts.
// Domain-specific sites (netsim message drop/duplicate/delay) call
// Fire() directly and interpret the config themselves.
package fault

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// metricFired counts failpoint firings per site on the process-global
// registry, so a chaos run against a live faqd shows up on /metrics.
// Children are pre-bound at Register time; the disarmed hot path is
// untouched (still one atomic pointer load).
var metricFired = obs.Default().NewCounterVec("faq_fault_fired_total",
	"Failpoint hits that actually fired (armed sites only), by site.",
	"site")

// ErrInjected matches every error produced by an armed failpoint
// (errors.Is). The concrete type is *InjectedError, carrying the site.
var ErrInjected = errors.New("fault: injected failure")

// InjectedError is the typed error of an error-mode failpoint hit.
type InjectedError struct {
	Site string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected error at failpoint %q", e.Site)
}

// Is makes errors.Is(err, ErrInjected) succeed on InjectedError values.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// InjectedPanic is the panic payload of a panic-mode hit (and of every
// failing mode at ctx-less Inject sites). The service boundary recovers
// it into a typed internal error that records the site.
type InjectedPanic struct {
	Site string
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic at failpoint %q", p.Site)
}

// Mode selects the behavior of an armed site.
type Mode uint8

const (
	// ModeOff leaves the site disarmed (the zero Config).
	ModeOff Mode = iota
	// ModeError returns a typed *InjectedError from Hit (panics at
	// Inject-only sites).
	ModeError
	// ModePanic panics with an *InjectedPanic.
	ModePanic
	// ModeDelay sleeps for Config.Delay (aborting early on ctx
	// cancellation at Hit sites).
	ModeDelay
	// ModeCancel returns the context's error — context.Canceled when the
	// ctx is live or absent — simulating a cancellation surfacing at the
	// site.
	ModeCancel
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	case ModeCancel:
		return "cancel"
	}
	return "off"
}

// defaultDelay is the sleep of a delay-mode site with no explicit
// duration — long enough to open race windows, short enough for sweeps.
const defaultDelay = time.Millisecond

// Config is one site's armed behavior plus its deterministic trigger.
type Config struct {
	Mode  Mode
	Delay time.Duration // ModeDelay sleep; defaultDelay when zero
	Arg   int           // free integer for domain-specific sites
	Once  bool          // fire on the first evaluation only
	OneIn int           // fire on evaluations 1, 1+k, 1+2k, ... (≤ 1: every)
}

// Site is one named failpoint. Obtain sites with Register at package
// init; hits on a disarmed site are a single atomic pointer load.
type Site struct {
	name   string
	cfg    atomic.Pointer[Config]
	hits   atomic.Uint64 // evaluations while armed (trigger counter)
	fired  atomic.Uint64 // hits that actually fired
	metric *obs.Counter  // pre-bound faq_fault_fired_total{site=name}
}

var (
	regMu   sync.Mutex
	sites   = make(map[string]*Site)
	pending = make(map[string]Config) // specs armed before registration
)

// Register returns the failpoint named name, creating it on first use
// (idempotent, safe for concurrent init). If a spec for the name was
// enabled before registration (e.g. FAQ_FAILPOINTS parsed at init before
// the registering package initialized), it arms immediately.
func Register(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := sites[name]; ok {
		return s
	}
	s := &Site{name: name, metric: metricFired.With(name)}
	if cfg, ok := pending[name]; ok {
		delete(pending, name)
		c := cfg
		s.cfg.Store(&c)
	}
	sites[name] = s
	return s
}

// Fired reports how many times the site has fired since it was last
// armed — the chaos suite's "did this sweep actually reach the site"
// signal.
func (s *Site) Fired() uint64 { return s.fired.Load() }

// Fire evaluates the site's trigger: it returns the armed Config and
// true when the site fires on this evaluation. Generic sites go through
// Hit/Inject; domain-specific sites (netsim) interpret the Config
// themselves. Disarmed sites return immediately after one atomic load.
func (s *Site) Fire() (Config, bool) {
	cfg := s.cfg.Load()
	if cfg == nil {
		return Config{}, false
	}
	n := s.hits.Add(1)
	if cfg.Once && n != 1 {
		return Config{}, false
	}
	if cfg.OneIn > 1 && (n-1)%uint64(cfg.OneIn) != 0 {
		return Config{}, false
	}
	s.fired.Add(1)
	s.metric.Add(1)
	return *cfg, true
}

// Hit applies the generic failpoint semantics at an error-capable call
// site. ctx may be nil (background): delay then sleeps uninterruptibly
// and cancel returns context.Canceled.
func (s *Site) Hit(ctx context.Context) error {
	if s.cfg.Load() == nil {
		return nil
	}
	return s.hitSlow(ctx)
}

func (s *Site) hitSlow(ctx context.Context) error {
	cfg, ok := s.Fire()
	if !ok {
		return nil
	}
	switch cfg.Mode {
	case ModeError:
		return &InjectedError{Site: s.name}
	case ModePanic:
		panic(&InjectedPanic{Site: s.name})
	case ModeDelay:
		d := cfg.Delay
		if d <= 0 {
			d = defaultDelay
		}
		if ctx == nil {
			time.Sleep(d)
			return nil
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case ModeCancel:
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return context.Canceled
	}
	return nil
}

// Inject applies the failpoint semantics at a ctx-less call site with no
// error return (the relation kernels): delay sleeps; error, panic, and
// cancel all panic with an *InjectedPanic, to be recovered and typed at
// the service boundary.
func (s *Site) Inject() {
	if s.cfg.Load() == nil {
		return
	}
	cfg, ok := s.Fire()
	if !ok {
		return
	}
	if cfg.Mode == ModeDelay {
		d := cfg.Delay
		if d <= 0 {
			d = defaultDelay
		}
		time.Sleep(d)
		return
	}
	panic(&InjectedPanic{Site: s.name})
}

// Enable arms the named site with cfg (Mode ModeOff disarms). Unknown
// names are held pending and arm when the site registers, so specs can
// be applied before the registering package's init runs.
func Enable(name string, cfg Config) {
	regMu.Lock()
	defer regMu.Unlock()
	s, ok := sites[name]
	if !ok {
		if cfg.Mode == ModeOff {
			delete(pending, name)
		} else {
			pending[name] = cfg
		}
		return
	}
	if cfg.Mode == ModeOff {
		s.cfg.Store(nil)
	} else {
		c := cfg
		s.cfg.Store(&c)
	}
	s.hits.Store(0)
	s.fired.Store(0)
}

// Reset disarms every site (registered and pending) and clears all
// trigger counters — the between-cases hook of the chaos suite.
func Reset() {
	regMu.Lock()
	defer regMu.Unlock()
	pending = make(map[string]Config)
	for _, s := range sites {
		s.cfg.Store(nil)
		s.hits.Store(0)
		s.fired.Store(0)
	}
}

// Names returns every registered site name, sorted — the sweep universe
// of the chaos suite (sites registered by packages linked into the test
// binary).
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(sites))
	for name := range sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the registered site by name.
//
//faqlint:allow deadexport(the relation, delta and service chaos sweeps read a site's Fired count through it)
func Lookup(name string) (*Site, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	s, ok := sites[name]
	return s, ok
}

// EnableSpec parses and applies a spec string — one or more
// ';'-separated "<site>=<mode>[:<arg>][@<pred>]" entries (the
// FAQ_FAILPOINTS grammar). Empty entries are skipped.
func EnableSpec(spec string) error {
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rhs, ok := strings.Cut(entry, "=")
		name, rhs = strings.TrimSpace(name), strings.TrimSpace(rhs)
		if !ok || name == "" || rhs == "" {
			return fmt.Errorf("fault: malformed failpoint entry %q (want site=mode[:arg][@pred])", entry)
		}
		cfg, err := parseConfig(rhs)
		if err != nil {
			return fmt.Errorf("fault: failpoint %q: %w", name, err)
		}
		Enable(name, cfg)
	}
	return nil
}

func parseConfig(rhs string) (Config, error) {
	var cfg Config
	modeArg := rhs
	if at := strings.LastIndex(rhs, "@"); at >= 0 {
		modeArg = rhs[:at]
		switch pred := strings.TrimSpace(rhs[at+1:]); {
		case pred == "always" || pred == "":
		case pred == "once":
			cfg.Once = true
		case strings.HasPrefix(pred, "1in"):
			k, err := strconv.Atoi(pred[len("1in"):])
			if err != nil || k < 1 {
				return cfg, fmt.Errorf("bad predicate %q (want 1in<k>)", pred)
			}
			cfg.OneIn = k
		default:
			return cfg, fmt.Errorf("unknown predicate %q (want always, once, or 1in<k>)", pred)
		}
	}
	mode, arg, _ := strings.Cut(modeArg, ":")
	switch strings.TrimSpace(mode) {
	case "error":
		cfg.Mode = ModeError
	case "panic":
		cfg.Mode = ModePanic
	case "delay":
		cfg.Mode = ModeDelay
	case "cancel":
		cfg.Mode = ModeCancel
	case "off":
		cfg.Mode = ModeOff
	default:
		return cfg, fmt.Errorf("unknown mode %q (want error, panic, delay, cancel, or off)", mode)
	}
	if arg = strings.TrimSpace(arg); arg != "" {
		if d, err := time.ParseDuration(arg); err == nil {
			cfg.Delay = d
		} else if k, err := strconv.Atoi(arg); err == nil {
			cfg.Arg = k
		} else {
			return cfg, fmt.Errorf("bad argument %q (want a duration or an integer)", arg)
		}
	}
	return cfg, nil
}

func init() {
	// FAQ_FAILPOINTS arms sites at process start — the ops hook for
	// chaos-testing a live faqd. Parse errors are fatal by design: a
	// silently ignored chaos spec would report a clean run that tested
	// nothing.
	if spec := os.Getenv("FAQ_FAILPOINTS"); spec != "" {
		if err := EnableSpec(spec); err != nil {
			panic(err)
		}
	}
}
