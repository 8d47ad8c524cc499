// Package perf models the microarchitectural effects the paper's production
// evaluation turns on: instruction-cache and iTLB pressure (smaller code
// wins), branch/call overhead (outlining loses), data-page working sets
// (llvm-link's global reordering loses, §VI-3), all parameterized over
// device and OS models (Figure 13's rows are the devices).
//
// The model consumes the instruction trace of internal/exec and produces
// cycle counts. It is deliberately simple — in-order issue with additive
// penalties — because the paper's claims are about *directions and rough
// magnitudes* across configurations, not absolute hardware numbers.
package perf

import (
	"outliner/internal/exec"
	"outliner/internal/isa"
)

// Device is a hardware model (one row of Figure 13's heatmaps).
type Device struct {
	Name        string
	ICacheBytes int
	CacheLine   int
	ICacheAssoc int
	ITLBEntries int
	PageSize    int
	DCacheBytes int
	DCacheAssoc int

	// ResidentDataPages models memory pressure: data pages beyond this
	// working-set size fault on first re-touch.
	ResidentDataPages int

	BaseCPI          float64 // cycles per instruction, everything hitting
	ICacheMissCycles float64
	ITLBMissCycles   float64
	DCacheMissCycles float64
	BranchMissCycles float64
	PageFaultCycles  float64
	ClockGHz         float64
}

// OS is an operating-system model: scheduling and runtime overhead scale
// every cycle by one constant factor. The factor cancels in Figure 13's
// optimized/baseline ratios, so the figure runs one OS.
type OS struct {
	Name     string
	Overhead float64 // multiplier ≥ 1.0
}

// Devices is the hardware grid used in the Figure 13 reproduction.
var Devices = []Device{
	{Name: "iPhone6s", ICacheBytes: 32 << 10, CacheLine: 64, ICacheAssoc: 4,
		ITLBEntries: 32, PageSize: 4096, DCacheBytes: 32 << 10, DCacheAssoc: 4,
		ResidentDataPages: 48, BaseCPI: 0.55, ICacheMissCycles: 30,
		ITLBMissCycles: 24, DCacheMissCycles: 32, BranchMissCycles: 14,
		PageFaultCycles: 24000, ClockGHz: 1.8},
	{Name: "iPhone7", ICacheBytes: 48 << 10, CacheLine: 64, ICacheAssoc: 4,
		ITLBEntries: 48, PageSize: 4096, DCacheBytes: 32 << 10, DCacheAssoc: 4,
		ResidentDataPages: 64, BaseCPI: 0.5, ICacheMissCycles: 28,
		ITLBMissCycles: 22, DCacheMissCycles: 30, BranchMissCycles: 13,
		PageFaultCycles: 22000, ClockGHz: 2.3},
	{Name: "iPhone8", ICacheBytes: 64 << 10, CacheLine: 64, ICacheAssoc: 4,
		ITLBEntries: 64, PageSize: 4096, DCacheBytes: 64 << 10, DCacheAssoc: 8,
		ResidentDataPages: 96, BaseCPI: 0.45, ICacheMissCycles: 26,
		ITLBMissCycles: 20, DCacheMissCycles: 28, BranchMissCycles: 12,
		PageFaultCycles: 20000, ClockGHz: 2.4},
	{Name: "iPhoneX-Gbl", ICacheBytes: 64 << 10, CacheLine: 64, ICacheAssoc: 8,
		ITLBEntries: 64, PageSize: 4096, DCacheBytes: 64 << 10, DCacheAssoc: 8,
		ResidentDataPages: 96, BaseCPI: 0.42, ICacheMissCycles: 24,
		ITLBMissCycles: 18, DCacheMissCycles: 26, BranchMissCycles: 11,
		PageFaultCycles: 18000, ClockGHz: 2.4},
	{Name: "iPhoneXS", ICacheBytes: 128 << 10, CacheLine: 64, ICacheAssoc: 8,
		ITLBEntries: 128, PageSize: 16384, DCacheBytes: 128 << 10, DCacheAssoc: 8,
		ResidentDataPages: 128, BaseCPI: 0.38, ICacheMissCycles: 22,
		ITLBMissCycles: 16, DCacheMissCycles: 24, BranchMissCycles: 10,
		PageFaultCycles: 16000, ClockGHz: 2.5},
	{Name: "iPhone11", ICacheBytes: 128 << 10, CacheLine: 64, ICacheAssoc: 8,
		ITLBEntries: 128, PageSize: 16384, DCacheBytes: 128 << 10, DCacheAssoc: 8,
		ResidentDataPages: 192, BaseCPI: 0.35, ICacheMissCycles: 20,
		ITLBMissCycles: 15, DCacheMissCycles: 22, BranchMissCycles: 9,
		PageFaultCycles: 15000, ClockGHz: 2.65},
}

// OSes is the operating-system grid.
var OSes = []OS{
	{Name: "12.4.1", Overhead: 1.06},
	{Name: "13.3.0", Overhead: 1.03},
	{Name: "13.5.1", Overhead: 1.00},
	{Name: "13.6.0", Overhead: 1.01},
}

// Result is a simulated run's cost breakdown.
type Result struct {
	Insts        int64
	Cycles       float64
	Seconds      float64
	ICacheMisses int64
	ITLBMisses   int64
	DCacheMisses int64
	BranchMisses int64
	PageFaults   int64
	IPC          float64
}

// Simulator consumes an instruction trace and accumulates cost.
type Simulator struct {
	dev Device
	os  OS

	icache *cacheModel
	dcache *cacheModel
	itlb   *lruSet
	dpages *lruSet
	bpred  map[int64]uint8 // 2-bit counters by branch PC

	res Result
}

// New returns a simulator for a device/OS pair.
func New(dev Device, os OS) *Simulator {
	return &Simulator{
		dev:    dev,
		os:     os,
		icache: newCacheModel(dev.ICacheBytes, dev.CacheLine, dev.ICacheAssoc),
		dcache: newCacheModel(dev.DCacheBytes, dev.CacheLine, dev.DCacheAssoc),
		itlb:   newLRUSet(dev.ITLBEntries),
		dpages: newLRUSet(dev.ResidentDataPages),
		bpred:  make(map[int64]uint8),
	}
}

// Observe is the exec trace hook.
func (s *Simulator) Observe(ev exec.Event) {
	s.res.Insts++
	s.res.Cycles += s.dev.BaseCPI

	// Instruction fetch: cache line + TLB page.
	if !s.icache.access(ev.PC) {
		s.res.ICacheMisses++
		s.res.Cycles += s.dev.ICacheMissCycles
	}
	if !s.itlb.access(ev.PC / int64(s.dev.PageSize)) {
		s.res.ITLBMisses++
		s.res.Cycles += s.dev.ITLBMissCycles
	}

	if ev.MemAddr != 0 {
		if !s.dcache.access(ev.MemAddr) {
			s.res.DCacheMisses++
			s.res.Cycles += s.dev.DCacheMissCycles
		}
		// Data working set: pages evicted under memory pressure fault on
		// re-touch. Stack pages are pinned (always resident).
		if !isStack(ev.MemAddr) {
			if !s.dpages.access(ev.MemAddr / int64(s.dev.PageSize)) {
				s.res.PageFaults++
				s.res.Cycles += s.dev.PageFaultCycles
			}
		}
	}

	if isBranchOp(ev) {
		taken := ev.Branch
		if s.predict(ev.PC, taken) != taken {
			s.res.BranchMisses++
			s.res.Cycles += s.dev.BranchMissCycles
		}
	}
}

func isStack(addr int64) bool { return addr >= 1<<34 && addr < (1<<34)+(4<<20) }

func isBranchOp(ev exec.Event) bool {
	// Conditional branches are the only ones the predictor can miss in this
	// model; calls/returns/unconditional branches are BTB hits ("outlined
	// branches are predictable by modern hardware" — §VII-E).
	switch ev.Op {
	case isa.Bcc, isa.CBZ, isa.CBNZ:
		return true
	}
	return false
}

// predict runs a 2-bit saturating counter per branch PC and returns the
// prediction while updating state.
func (s *Simulator) predict(pc int64, taken bool) bool {
	c := s.bpred[pc]
	pred := c >= 2
	if taken && c < 3 {
		c++
	}
	if !taken && c > 0 {
		c--
	}
	s.bpred[pc] = c
	return pred
}

// Finish applies OS overhead and computes derived metrics.
func (s *Simulator) Finish() Result {
	r := s.res
	r.Cycles *= s.os.Overhead
	if r.Cycles > 0 {
		r.IPC = float64(r.Insts) / r.Cycles
	}
	r.Seconds = r.Cycles / (s.dev.ClockGHz * 1e9)
	return r
}

// ---- cache and LRU machinery ----

type cacheModel struct {
	sets     []map[int64]int64 // tag -> last-use tick
	assoc    int
	lineBits uint
	setMask  int64
	tick     int64
}

func newCacheModel(bytes, line, assoc int) *cacheModel {
	nsets := bytes / line / assoc
	if nsets < 1 {
		nsets = 1
	}
	c := &cacheModel{
		sets:    make([]map[int64]int64, nsets),
		assoc:   assoc,
		setMask: int64(nsets - 1),
	}
	for line > 1 {
		line >>= 1
		c.lineBits++
	}
	for i := range c.sets {
		c.sets[i] = make(map[int64]int64, assoc)
	}
	return c
}

// access touches addr; reports hit.
func (c *cacheModel) access(addr int64) bool {
	c.tick++
	lineAddr := addr >> c.lineBits
	set := c.sets[lineAddr&c.setMask]
	if _, ok := set[lineAddr]; ok {
		set[lineAddr] = c.tick
		return true
	}
	if len(set) >= c.assoc {
		var victim int64
		oldest := int64(1 << 62)
		for tag, t := range set {
			if t < oldest {
				oldest = t
				victim = tag
			}
		}
		delete(set, victim)
	}
	set[lineAddr] = c.tick
	return false
}

type lruSet struct {
	entries map[int64]int64
	cap     int
	tick    int64
}

func newLRUSet(capacity int) *lruSet {
	if capacity < 1 {
		capacity = 1
	}
	return &lruSet{entries: make(map[int64]int64, capacity), cap: capacity}
}

func (l *lruSet) access(key int64) bool {
	l.tick++
	if _, ok := l.entries[key]; ok {
		l.entries[key] = l.tick
		return true
	}
	if len(l.entries) >= l.cap {
		var victim int64
		oldest := int64(1 << 62)
		for k, t := range l.entries {
			if t < oldest {
				oldest = t
				victim = k
			}
		}
		delete(l.entries, victim)
	}
	l.entries[key] = l.tick
	return false
}
