package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostFingerprint identifies the machine and toolchain a result came
// from; results from different fingerprints are not comparable.
func hostFingerprint() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// usage is the process's resource use so far.
type usage struct {
	CPU     time.Duration // user + system
	MaxRSSB int64         // peak resident set, bytes
}

func rusage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	// Linux reports ru_maxrss in KiB.
	return usage{CPU: tv(ru.Utime) + tv(ru.Stime), MaxRSSB: int64(ru.Maxrss) * 1024}
}
