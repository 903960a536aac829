dcws_module(migrate
  naming.cc
  selection.cc
  home_policy.cc
  coop_table.cc
)
