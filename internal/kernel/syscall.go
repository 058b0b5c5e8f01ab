package kernel

import (
	"fmt"

	"superpin/internal/isa"
)

// System call numbers. The guest places the number in r1 and up to four
// arguments in r2..r5; the result is returned in r1.
const (
	SysExit   uint32 = 1  // exit(code)
	SysWrite  uint32 = 2  // write(fd, buf, len) -> len
	SysRead   uint32 = 3  // read(fd, buf, len) -> len (deterministic input stream)
	SysBrk    uint32 = 4  // brk(addr) -> new break (addr==0 queries)
	SysMmap   uint32 = 5  // mmap(len) -> addr (anonymous, bump-allocated)
	SysMunmap uint32 = 6  // munmap(addr, len) -> 0
	SysTime   uint32 = 7  // time() -> virtual milliseconds since boot
	SysGetPid uint32 = 8  // getpid() -> pid
	SysRand   uint32 = 9  // rand() -> pseudo-random word from the kernel pool
	SysYield  uint32 = 10 // yield() -> 0 (scheduling hint, no effect)
	// SysSpawn creates a thread: spawn(entry, sp, arg) -> tid. The new
	// thread shares the caller's memory image (no copy-on-write), starts
	// at entry with the given stack pointer and arg in r2, and belongs
	// to the caller's thread group: exit() terminates the whole group.
	SysSpawn uint32 = 11
)

// SyscallName returns a human-readable name for sysno.
func SyscallName(sysno uint32) string {
	switch sysno {
	case SysExit:
		return "exit"
	case SysWrite:
		return "write"
	case SysRead:
		return "read"
	case SysBrk:
		return "brk"
	case SysMmap:
		return "mmap"
	case SysMunmap:
		return "munmap"
	case SysTime:
		return "time"
	case SysGetPid:
		return "getpid"
	case SysRand:
		return "rand"
	case SysYield:
		return "yield"
	case SysSpawn:
		return "spawn"
	default:
		return fmt.Sprintf("sys%d", sysno)
	}
}

// MemWrite records one contiguous memory effect of a system call. The
// SuperPin control process captures these to play system calls back inside
// instrumentation slices (paper Section 4.2).
type MemWrite struct {
	Addr uint32
	Data []byte
}

// SyscallOutcome is the complete, replayable effect of a system call: the
// value returned in r1, the memory it wrote, its cycle cost, and whether
// it terminated the process.
type SyscallOutcome struct {
	Ret    uint32
	Writes []MemWrite
	Cost   Cycles
	Exited bool
}

// SyscallArgs extracts the syscall number and arguments from p's registers.
func SyscallArgs(p *Proc) (sysno uint32, args [4]uint32) {
	sysno = p.Regs.R[isa.RegSys]
	args[0] = p.Regs.R[isa.RegArg0]
	args[1] = p.Regs.R[isa.RegArg1]
	args[2] = p.Regs.R[isa.RegArg2]
	args[3] = p.Regs.R[isa.RegArg3]
	return sysno, args
}

// serviceSyscall computes the outcome of a system call for p without
// applying it. Deterministic kernel state (the input stream, the random
// pool, the clock) advances here, which is exactly why slices must replay
// recorded outcomes rather than re-execute: a re-executed read or time
// call would observe different values than the master did.
func (k *Kernel) serviceSyscall(p *Proc, sysno uint32, args [4]uint32) SyscallOutcome {
	cost := &k.cfg.Cost
	out := SyscallOutcome{Cost: cost.SyscallBase}
	switch sysno {
	case SysExit:
		out.Exited = true
		out.Ret = args[0]
	case SysWrite:
		buf, length := args[1], args[2]
		if length > maxIOLen {
			length = maxIOLen
		}
		data := make([]byte, length)
		p.Mem.ReadBytes(buf, data)
		k.Stdout = append(k.Stdout, data...)
		out.Ret = length
		out.Cost += Cycles(length / 16)
	case SysRead:
		buf, length := args[1], args[2]
		if length > maxIOLen {
			length = maxIOLen
		}
		data := make([]byte, length)
		for i := range data {
			data[i] = byte(k.nextRand())
		}
		out.Writes = append(out.Writes, MemWrite{Addr: buf, Data: data})
		out.Ret = length
		out.Cost += Cycles(length / 16)
	case SysBrk:
		if args[0] != 0 {
			p.Brk = args[0]
		}
		out.Ret = p.Brk
	case SysMmap:
		length := (args[0] + 0xfff) &^ 0xfff
		if length == 0 {
			length = 0x1000
		}
		out.Ret = p.MmapTop
		p.MmapTop += length
	case SysMunmap:
		out.Ret = 0
	case SysTime:
		out.Ret = uint32(uint64(k.Now) * 1000 / uint64(cost.CPS))
	case SysGetPid:
		out.Ret = uint32(p.PID)
	case SysRand:
		out.Ret = uint32(k.nextRand())
	case SysYield:
		out.Ret = 0
	case SysSpawn:
		child := k.SpawnThread(p, args[0], args[1], args[2])
		if child == nil {
			out.Ret = ^uint32(0)
		} else {
			out.Ret = uint32(child.PID)
		}
	default:
		out.Ret = ^uint32(0) // ENOSYS
	}
	return out
}

// maxIOLen bounds single read/write transfers.
const maxIOLen = 1 << 20

// ApplyOutcome applies a syscall outcome (recorded or fresh) to p's
// registers and memory. It is exported so SuperPin's playback engine uses
// the same application path as the kernel itself.
func ApplyOutcome(p *Proc, out SyscallOutcome) {
	p.Regs.R[isa.RegSys] = out.Ret
	for _, w := range out.Writes {
		p.Mem.WriteBytes(w.Addr, w.Data)
	}
}

// nextRand steps the kernel's deterministic xorshift64* pool.
func (k *Kernel) nextRand() uint64 {
	x := k.randState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	k.randState = x
	return x * 0x2545F4914F6CDD1D
}
