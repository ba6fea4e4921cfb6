package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 10 * time.Millisecond

// childPIDs lists the live direct children of this process (tcp
// worker processes).
func childPIDs() []int {
	self := os.Getpid()
	var out []int
	dirs, _ := filepath.Glob("/proc/[0-9]*")
	for _, d := range dirs {
		f := procStatFields(d + "/stat")
		if len(f) > 1 && f[1] == strconv.Itoa(self) {
			if pid, err := strconv.Atoi(filepath.Base(d)); err == nil {
				out = append(out, pid)
			}
		}
	}
	return out
}

// procStatFields returns the fields of a /proc/<pid>/stat file after
// the command name: index 0 is the state, 1 the parent pid, 11 utime
// and 12 stime.
func procStatFields(path string) []string {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	s := string(b)
	if i := strings.LastIndexByte(s, ')'); i >= 0 {
		s = s[i+1:]
	}
	return strings.Fields(s)
}

// hwmMB reads a process's peak resident set size (VmHWM) in MB.
func hwmMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// treeRSSPeakMB is the peak RSS of this process plus that of its live
// children. Call it before the children exit.
func treeRSSPeakMB() float64 {
	mb := hwmMB("self")
	for _, pid := range childPIDs() {
		mb += hwmMB(strconv.Itoa(pid))
	}
	return mb
}

// treeCPU is the CPU time used so far by this process and its live
// children.
func treeCPU() time.Duration {
	var ru syscall.Rusage
	var d time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		d = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for _, pid := range childPIDs() {
		f := procStatFields("/proc/" + strconv.Itoa(pid) + "/stat")
		if len(f) > 12 {
			u, _ := strconv.ParseInt(f[11], 10, 64)
			s, _ := strconv.ParseInt(f[12], 10, 64)
			d += time.Duration(u+s) * clockTick
		}
	}
	return d
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// procWriteChars reads wchar from /proc/self/io: bytes this process
// passed to write-like system calls.
func procWriteChars() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}
