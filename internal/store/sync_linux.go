//go:build linux

package store

import (
	"errors"
	"os"
	"syscall"
)

// datasync flushes a file's data (and only the metadata needed to read it
// back, e.g. size changes) with fdatasync. Combined with segment
// preallocation this skips the inode timestamp writes a full fsync pays on
// every WAL flush.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if !errors.Is(err, syscall.EINTR) {
			return err
		}
	}
}
