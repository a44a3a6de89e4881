package main

// Device files live in memfd objects: anonymous tmpfs-backed files that
// hold no name in any directory and vanish when the last descriptor closes.
// They give filedev the /dev/shm behaviour `onefile-kv -file` is deployed
// with (msync is a page-table walk, not disk I/O) while the benchmark writes
// nothing outside its checkout.
//
// filedev.Create insists on a path that does not exist yet, so a device
// image is formatted once per run, before any timed set-up: Create a sparse
// file in the scratch directory, Close it (clean superblock), keep its
// non-zero chunks in memory and delete it. Each set-up then copies the
// image into a fresh memfd and opens it with filedev.Open through
// /proc/self/fd, which runs the same attach path Create does.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"unsafe"

	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
)

// memDevice is a filedev device whose file is a memfd.
type memDevice struct {
	*filedev.Device
	mem *os.File // the memfd; the device holds its own descriptor
}

// deviceDescription names the device backing in the run conditions.
const deviceDescription = "memfd (tmpfs-backed, opened as /proc/self/fd/N)"

// memfdCreateNR is memfd_create's system call number; the frozen syscall
// package does not export it.
var memfdCreateNR = map[string]uintptr{"amd64": 319, "arm64": 279, "386": 356}

func memfdCreate(name string) (*os.File, error) {
	nr, ok := memfdCreateNR[runtime.GOARCH]
	if !ok {
		return nil, fmt.Errorf("memfd_create: unknown system call number on %s", runtime.GOARCH)
	}
	p, err := syscall.BytePtrFromString(name)
	if err != nil {
		return nil, err
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(p)), mfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memfd_create: %w", errno)
	}
	return os.NewFile(fd, name), nil
}

// deviceImage is a freshly formatted device file: its size and the
// chunks that are not all zero (the rest of a fresh device is zero).
type deviceImage struct {
	cfg    pmem.Config
	size   int64
	chunks []imageChunk
}

type imageChunk struct {
	off  int64
	data []byte
}

// formatImage formats a device sized by cfg in the scratch directory and
// returns its image.
func formatImage(scratch, name string, cfg pmem.Config) (*deviceImage, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(scratch, fmt.Sprintf("%s-%d.img", name, os.Getpid()))
	os.Remove(path) // left over from a killed run
	defer os.Remove(path)
	d, err := filedev.Create(path, cfg)
	if err != nil {
		return nil, fmt.Errorf("format %s: %w", name, err)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("format %s: %w", name, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	img := &deviceImage{cfg: cfg, size: st.Size()}
	buf := make([]byte, 1<<20)
	zero := make([]byte, len(buf))
	for off := int64(0); off < img.size; {
		n, err := f.ReadAt(buf, off)
		if n > 0 && !bytes.Equal(buf[:n], zero[:n]) {
			img.chunks = append(img.chunks, imageChunk{off: off, data: bytes.Clone(buf[:n])})
		}
		off += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return img, nil
}

// open returns a new device holding a copy of the image, in a memfd.
func (img *deviceImage) open(name string) (*memDevice, error) {
	mem, err := memfdCreate(name)
	if err != nil {
		return nil, err
	}
	err = mem.Truncate(img.size)
	for _, c := range img.chunks {
		if err == nil {
			_, err = mem.WriteAt(c.data, c.off)
		}
	}
	if err == nil {
		var dev *filedev.Device
		if dev, err = filedev.Open(fmt.Sprintf("/proc/self/fd/%d", mem.Fd()), img.cfg); err == nil {
			return &memDevice{Device: dev, mem: mem}, nil
		}
	}
	mem.Close()
	return nil, fmt.Errorf("device %s: %w", name, err)
}

// Close closes the device, then the memfd, which frees its memory.
func (d *memDevice) Close() error {
	err := d.Device.Close()
	if cerr := d.mem.Close(); err == nil {
		err = cerr
	}
	return err
}
