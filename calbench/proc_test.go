package main

import (
	"os"
	"testing"
)

func TestParseStatSkipsOddCommandNames(t *testing.T) {
	// Field 2 holds spaces and a ')' of its own; utime/stime are 14/15.
	stat := "4242 (syd node) (x)) S 1 4242 4242 0 -1 4194560 1021 0 0 0 1234 567 0 0 20 0 9 0 777 1000 200 18446744073709551615\n"
	got, err := parseStat([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if got.UserTicks != 1234 || got.SysTicks != 567 {
		t.Fatalf("got %+v, want utime 1234 stime 567", got)
	}
	if ms := got.Ms(); ms != 18010 {
		t.Fatalf("Ms = %v, want 18010 at 100 ticks/s", ms)
	}
	if _, err := parseStat([]byte("4242 (short) S 1 2")); err == nil {
		t.Fatal("truncated stat accepted")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsydnode\nVmPeak:\t  800000 kB\nVmHWM:\t   16384 kB\nVmRSS:\t   12000 kB\n"
	kb, err := parseVmHWM([]byte(status))
	if err != nil || kb != 16384 {
		t.Fatalf("got %d, %v; want 16384", kb, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Fatal("status without VmHWM accepted")
	}
	if _, err := parseVmHWM([]byte("VmHWM:\t12 MB\n")); err == nil {
		t.Fatal("VmHWM in an unknown unit accepted")
	}
}

func TestReadSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no procfs")
	}
	if _, err := readCPU("self"); err != nil {
		t.Fatal(err)
	}
	kb, err := readPeakRSS("self")
	if err != nil || kb <= 0 {
		t.Fatalf("peak RSS %d, %v", kb, err)
	}
}
