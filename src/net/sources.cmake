dcws_module(net
  socket_util.cc
  tcp.cc
)
