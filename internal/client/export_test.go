package client

// MaxPrealloc exposes the up-front body allocation bound to the tests.
const MaxPrealloc = maxPrealloc
