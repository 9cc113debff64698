"""Results-CSV text with the wall-time column removed, for the determinism
comparisons of the experiment and acceptance tests."""

from onsetkit.experiment import CSV_COLUMNS, RESULTS_FORMAT_LINE, _csv_record, _result_records


def strip_wall_column(csv_text: str) -> str:
    """Results CSV minus the wall-time column, for determinism comparisons."""
    drop = CSV_COLUMNS.index("wall_s")
    return RESULTS_FORMAT_LINE + "\n" + "".join(
        _csv_record(rec[:drop] + rec[drop + 1:])
        for rec in [CSV_COLUMNS, *_result_records(csv_text, "results text")])
