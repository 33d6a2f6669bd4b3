let () =
  Alcotest.run "safety_liveness"
    [ ("order", Test_order.tests);
      ("lattice", Test_lattice.tests);
      ("core", Test_core.tests);
      ("pool", Test_pool.tests);
      ("bitset", Test_bitset.tests);
      ("digraph", Test_digraph.tests);
      ("word", Test_word.tests);
      ("nfa", Test_nfa.tests);
      ("buchi", Test_buchi.tests);
      ("ltl", Test_ltl.tests);
      ("kripke", Test_kripke.tests);
      ("ctl", Test_ctl.tests);
      ("tree", Test_tree.tests);
      ("rabin", Test_rabin.tests);
      ("topology", Test_topology.tests);
      ("mu", Test_mu.tests);
      ("regex", Test_regex.tests);
      ("runtime", Test_runtime.tests);
      ("cache", Test_cache.tests);
      ("session", Test_session.tests);
      ("serve", Test_serve.tests);
      ("obs", Test_obs.tests);
      ("json", Test_json.tests);
      ("acceptance", Test_acceptance.tests);
      ("properties", Test_properties.tests);
      ("integration", Test_integration.tests) ]
