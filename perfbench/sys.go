// Linux system interfaces: the benchmark runs on Linux only.

package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// threadCPU returns the CPU time the calling OS thread has used
// (CLOCK_THREAD_CPUTIME_ID). Under a hypervisor that reports steal time,
// the kernel leaves stolen time out of it.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// fsType names the filesystem holding dir (statfs magic numbers).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
