package k8s

import "unsafe"

// Versioned is what the store needs of a kind's Go type T: *T is the Object,
// and it deep-copies into another T, client-go's generated DeepCopyInto.
type Versioned[T any] interface {
	*T
	Object
	DeepCopyInto(*T)
}

// slabBytes is the size class a full slab fills. Go puts an 8-byte header on
// a pointerful object above 512 bytes, so a slab holds (slabBytes − 8) ÷ the
// version's size versions: 90 pods of 136 bytes, 69 CharmJobs of 176.
const slabBytes = 12288

// slab hands out the slots a kind's versions are stored in, each slot once.
// A slab is one allocation. The store's pod slabs are full from the start,
// since pods are written from the first job on; every other kind's first slab
// holds one version, and each refill doubles it up to slabBytes, so a kind
// written a handful of times a run, a Node or a ConfigMap, never costs a
// full slab.
type slab[T any] struct {
	free []T
	next int // the size of the next slab
}

func (b *slab[T]) slot() *T {
	if len(b.free) == 0 {
		b.free = make([]T, b.next)
		var v T
		b.next = min(2*b.next, (slabBytes-8)/int(unsafe.Sizeof(v)))
	}
	v := &b.free[0]
	b.free = b.free[1:]
	return v
}

// versions is a kind's slab as the store sees it: each call returns a fresh
// slot holding a copy of obj, which is of the kind's type. shallow's copy
// shares obj's maps; deep's has its own.
type versions interface {
	shallow(obj Object) Object
	deep(obj Object) Object
}

type kindSlab[T any, P Versioned[T]] struct{ slab[T] }

func newVersions[T any, P Versioned[T]]() versions { return &kindSlab[T, P]{slab[T]{next: 1}} }

func (b *kindSlab[T, P]) shallow(obj Object) Object {
	v := b.slot()
	*v = *obj.(P)
	return P(v)
}

func (b *kindSlab[T, P]) deep(obj Object) Object {
	v := b.slot()
	obj.(P).DeepCopyInto(v)
	return P(v)
}

// scheme makes the slab of each kind the store holds other than pods, which
// have their own: the store's analogue of the API server's scheme. A store
// makes a kind's slab at its first Create and refuses a kind missing here.
// Register adds a kind at init, so the table is only read once the program
// runs.
var scheme = map[Kind]func() versions{
	KindNode:      newVersions[Node],
	KindConfigMap: newVersions[ConfigMap],
}

// Register makes the kind of T one the store holds, as a custom resource's
// type joins the API server's scheme. Call it from an init function.
func Register[T any, P Versioned[T]]() { scheme[P(nil).Kind()] = newVersions[T, P] }
