// Package unsafeimport is a golden-file fixture for the unsafeimport
// analyzer: an unsafe import or an unsafe.Pointer conversion needs a
// directive giving its reason.
package unsafeimport

import (
	"reflect"
	"unsafe" // want `import of "unsafe"`
)

type pair struct{ a, b uint32 }

func bareCast(p *pair) *uint64 {
	return (*uint64)(unsafe.Pointer(p)) // want `conversion of an unsafe.Pointer to \*uint64`
}

// viaReflect never names unsafe, yet casts like bareCast does.
func viaReflect(p *pair) *[2]uint32 {
	return (*[2]uint32)(reflect.ValueOf(p).UnsafePointer()) // want `conversion of an unsafe.Pointer to \*\[2\]uint32`
}

// Clean cases below: no findings expected.

func justified(p *pair) *uint64 {
	//soclint:ignore unsafeimport pair is two adjacent uint32 fields, 8-byte sized and aligned by the caller
	return (*uint64)(unsafe.Pointer(p))
}

func size() uintptr {
	return unsafe.Sizeof(pair{})
}

func toUnsafe(p *pair) unsafe.Pointer {
	return unsafe.Pointer(p)
}

func plainConversion(x int) uint32 {
	return uint32(x)
}
