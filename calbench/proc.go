package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU is one process's accumulated CPU time.
type procCPU struct {
	UserTicks, SysTicks uint64
}

// Ms returns user+sys CPU in milliseconds.
func (c procCPU) Ms() float64 {
	return float64(c.UserTicks+c.SysTicks) * 1000 / clockTicks
}

// parseStat extracts utime and stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat. The command name (field 2) may hold
// spaces and parentheses, so fields are counted from its closing ')'.
func parseStat(data []byte) (procCPU, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return procCPU{}, fmt.Errorf("stat: no command field")
	}
	// After ") " come fields 3.. (state, ppid, ...); utime is field 14.
	fields := bytes.Fields(data[end+1:])
	const utimeIdx = 14 - 3
	if len(fields) <= utimeIdx+1 {
		return procCPU{}, fmt.Errorf("stat: %d fields after command, want > %d", len(fields), utimeIdx+1)
	}
	u, err := strconv.ParseUint(string(fields[utimeIdx]), 10, 64)
	if err != nil {
		return procCPU{}, fmt.Errorf("stat: utime: %w", err)
	}
	s, err := strconv.ParseUint(string(fields[utimeIdx+1]), 10, 64)
	if err != nil {
		return procCPU{}, fmt.Errorf("stat: stime: %w", err)
	}
	return procCPU{UserTicks: u, SysTicks: s}, nil
}

// parseVmHWM returns the peak resident set size in KiB from the
// contents of /proc/<pid>/status.
func parseVmHWM(data []byte) (int64, error) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// readCPU reads a live process's CPU time ("self" for the caller).
func readCPU(pid string) (procCPU, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procCPU{}, err
	}
	return parseStat(data)
}

// readPeakRSS reads a live process's peak RSS in KiB.
func readPeakRSS(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}
