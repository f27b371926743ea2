package main

import (
	"os/exec"
	"runtime"
	"sync"
	"syscall"
)

// daemon is a child process the benchmark owns. It is killed and reaped
// by kill, by killDaemons on a signal, and — through the parent-death
// signal — by the kernel if the benchmark itself is killed outright.
type daemon struct {
	pid     int
	stop    chan struct{}
	stopped chan struct{}
	once    sync.Once
}

var (
	daemonsMu sync.Mutex
	daemons   = map[*daemon]bool{}
)

// startDaemon starts cmd on a goroutine locked to its OS thread for the
// child's whole life: Linux delivers the parent-death signal when the
// thread that forked the child exits, not the process, so the thread
// must outlive the child.
func startDaemon(cmd *exec.Cmd) (*daemon, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{stop: make(chan struct{}), stopped: make(chan struct{})}
	started := make(chan error)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread ends with this goroutine, after the child
		err := cmd.Start()
		if err == nil {
			d.pid = cmd.Process.Pid
		}
		started <- err
		if err != nil {
			return
		}
		<-d.stop
		cmd.Process.Kill()
		cmd.Wait()
		close(d.stopped)
	}()
	if err := <-started; err != nil {
		return nil, err
	}
	daemonsMu.Lock()
	daemons[d] = true
	daemonsMu.Unlock()
	return d, nil
}

// kill stops the child and returns once it has been reaped.
func (d *daemon) kill() {
	d.once.Do(func() { close(d.stop) })
	<-d.stopped
	daemonsMu.Lock()
	delete(daemons, d)
	daemonsMu.Unlock()
}

// killDaemons reaps every live child; the signal watchdog's last resort.
func killDaemons() {
	daemonsMu.Lock()
	live := make([]*daemon, 0, len(daemons))
	for d := range daemons {
		live = append(live, d)
	}
	daemonsMu.Unlock()
	for _, d := range live {
		d.kill()
	}
}
