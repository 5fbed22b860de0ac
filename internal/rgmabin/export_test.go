package rgmabin

// SetWriteBuffer sizes the per-connection writer queues of a server
// that has not started listening.
func SetWriteBuffer(s *Server, n int) { s.writeBuffer = n }
