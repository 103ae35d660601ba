package serve

// DecodeTest exposes the memo record decoder to the external tests.
var DecodeTest = decodeTest
