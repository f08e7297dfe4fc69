package unsafeimport

import (
	//soclint:ignore unsafeimport a justified import is not reported
	"unsafe"
)

func offset() uintptr {
	return unsafe.Offsetof(pair{}.b)
}
