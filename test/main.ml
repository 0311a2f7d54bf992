let () =
  Alcotest.run "monpos"
    [
      ("util", Test_util.suite);
      ("lp.simplex", Test_lp.suite);
      ("lp.simplex_prop", Test_simplex_prop.suite);
      ("lp.lu", Test_lu.suite);
      ("lp.mip", Test_mip.suite);
      ("lp.parallel", Test_parallel.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("obs", Test_obs.suite);
      ("obs.reader", Test_obs_reader.suite);
      ("obs.prom", Test_prom.suite);
      ("obs.diff", Test_diff.suite);
      ("obs.flight", Test_flight.suite);
      ("graph", Test_graph.suite);
      ("flow", Test_flow.suite);
      ("flow.prop", Test_flow_prop.suite);
      ("cover", Test_cover.suite);
      ("topology", Test_topology.suite);
      ("traffic", Test_traffic.suite);
      ("instance", Test_instance.suite);
      ("passive", Test_passive.suite);
      ("campaign", Test_campaign.suite);
      ("mecf", Test_mecf.suite);
      ("sampling", Test_sampling.suite);
      ("active", Test_active.suite);
      ("resilience", Test_resilience.suite);
      ("scenario", Test_scenario.suite);
    ]
