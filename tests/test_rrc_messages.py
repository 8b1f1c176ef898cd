"""Tests for signaling message payload round-trips."""

from repro.cellnet.rat import RAT
from repro.config.events import EventConfig, EventType, PeriodicConfig
from repro.config.legacy import GsmCellConfig, UmtsCellConfig
from repro.config.lte import (
    InterFreqLayerConfig,
    InterRatGeranConfig,
    MeasurementConfig,
    ServingCellConfig,
)
from repro.rrc.messages import (
    MESSAGE_TYPES,
    LegacySystemInfo,
    MeasResult,
    MeasurementReport,
    MobilityControlInfo,
    PhyServingMeas,
    RrcConnectionReconfiguration,
    Sib1,
    Sib3,
    Sib5,
    Sib7,
)


def test_type_codes_unique():
    codes = [cls.TYPE_CODE for cls in MESSAGE_TYPES.values()]
    assert len(codes) == len(set(codes))


def test_sib3_roundtrip():
    sib3 = Sib3(config=ServingCellConfig(q_hyst=2.0, cell_reselection_priority=6))
    rebuilt = Sib3.from_payload(sib3.to_payload())
    assert rebuilt.config == sib3.config


def test_sib5_layers_roundtrip():
    sib5 = Sib5(layers=(
        InterFreqLayerConfig(dl_carrier_freq=5110),
        InterFreqLayerConfig(dl_carrier_freq=9820, cell_reselection_priority=5),
    ))
    rebuilt = Sib5.from_payload(sib5.to_payload())
    assert rebuilt.layers == sib5.layers


def test_sib7_carrier_freqs_tuple_restored():
    sib7 = Sib7(layers=(InterRatGeranConfig(carrier_freqs=(128, 190)),))
    rebuilt = Sib7.from_payload(sib7.to_payload())
    assert rebuilt.layers[0].carrier_freqs == (128, 190)


def test_reconfiguration_meas_config_roundtrip():
    meas = MeasurementConfig(
        events=(
            EventConfig(event=EventType.A3, offset=3.0, hysteresis=1.0,
                        time_to_trigger_ms=320),
            EventConfig(event=EventType.A5, threshold1=-110.0, threshold2=-104.0),
        ),
        periodic=PeriodicConfig(report_interval_ms=5120),
        s_measure=-97.0,
    )
    message = RrcConnectionReconfiguration(meas_config=meas)
    rebuilt = RrcConnectionReconfiguration.from_payload(message.to_payload())
    assert rebuilt.meas_config == meas
    assert rebuilt.mobility is None


def test_reconfiguration_mobility_roundtrip():
    mobility = MobilityControlInfo(target_carrier="A", target_gci=99,
                                   target_channel=9820, target_pci=5)
    message = RrcConnectionReconfiguration(mobility=mobility)
    rebuilt = RrcConnectionReconfiguration.from_payload(message.to_payload())
    assert rebuilt.mobility == mobility
    assert rebuilt.meas_config is None
    assert rebuilt.mobility.target_cell_id.gci == 99


def test_measurement_report_cell_ids():
    report = MeasurementReport(
        serving=MeasResult(carrier="A", gci=1),
        neighbors=(MeasResult(carrier="A", gci=2),),
    )
    assert report.serving.cell_id.gci == 1
    assert report.neighbors[0].cell_id.gci == 2


def test_legacy_system_info_config_roundtrip():
    config = UmtsCellConfig(s_intrasearch=12.0, priority_eutra=6)
    message = LegacySystemInfo.from_config("A", 7, 4385, RAT.UMTS, config, city="LA")
    rebuilt = LegacySystemInfo.from_payload(message.to_payload())
    assert rebuilt.to_config() == config
    assert rebuilt.cell_id.gci == 7


def test_legacy_system_info_gsm():
    config = GsmCellConfig(cell_reselect_hysteresis=6.0)
    message = LegacySystemInfo.from_config("A", 8, 128, RAT.GSM, config)
    assert message.to_config() == config


def test_phy_serving_meas_roundtrip():
    meas = PhyServingMeas(carrier="A", gci=3, channel=850, rsrp_dbm=-101.0,
                          rsrq_db=-11.0, rrc_connected=True)
    rebuilt = PhyServingMeas.from_payload(meas.to_payload())
    assert rebuilt == meas


def test_sib1_cell_id():
    assert Sib1(carrier="T", gci=12).cell_id.carrier == "T"
